// Package ingress assembles the HTTP serving process around a
// frontdoor.Backend. It sits above frontdoor and obs so that importing
// the front door (as the benchmark does) does not link the obs server.
package ingress

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/lsched"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/provenance"
)

// Serve runs the whole HTTP ingress around opts.Backend until ctx is
// done — the one assembly cmd/lsched-frontdoor and cmd/lsched-cluster
// share, so a coordinator's ingress cannot lack what a single node's
// has. It builds the named admission controller ("learned", seeded by
// seed, or "heuristic"), a flight recorder (spilling to provOut when
// set) with drift detector and SLO tracker, and a front door from opts
// with those attached; it serves POST /query on listen and, when
// obsAddr is set, the obs endpoints (extra carries the caller's own,
// e.g. Cluster). On ctx.Done it drains the front door (bounded by
// drain), flushes the recorder and logs the conservation and provenance
// counts. Close the backend after Serve returns: the door drains first.
func Serve(ctx context.Context, listen, obsAddr, controller string, seed int64, opts frontdoor.Options, extra obs.Options, provOut string, drain time.Duration) error {
	switch controller {
	case "learned":
		opts.Controller = frontdoor.NewLearned(lsched.NewAdmissionHead(nn.NewParams(seed)))
	case "heuristic":
		opts.Controller = frontdoor.NewHeuristic()
	default:
		return fmt.Errorf("unknown controller %q", controller)
	}

	rec := provenance.NewRecorder(provenance.Options{})
	rec.Instrument(opts.Metrics)
	rec.SetFeatureNames(provenance.KindAdmit, lsched.AdmissionFeatureNames())
	drift := provenance.NewDriftDetector(provenance.DriftConfig{
		Names:      lsched.AdmissionFeatureNames(),
		RefSamples: 512, // no training-time snapshot: calibrate on the first live window
	})
	drift.Instrument(opts.Metrics)
	rec.SetDrift(provenance.KindAdmit, drift)
	slo := provenance.NewSLOTracker(provenance.SLOConfig{})
	slo.Instrument(opts.Metrics)
	var provFile *os.File
	if provOut != "" {
		var err error
		if provFile, err = os.Create(provOut); err != nil {
			return err
		}
		defer provFile.Close() // error paths; the drain below checks Close
		rec.AttachSink(provFile, 256)
	}
	opts.Provenance, opts.SLO = rec, slo

	fd, err := frontdoor.New(opts)
	if err != nil {
		return err
	}
	if obsAddr != "" {
		extra.Metrics = opts.Metrics
		extra.FrontDoor = fd.Status
		extra.Provenance, extra.Drift, extra.SLO = rec, drift, slo
		engine := "up"
		if extra.Cluster != nil {
			engine = "cluster"
		}
		versioned, _ := opts.Controller.(interface{ PolicyVersion() int })
		extra.Health = func() obs.HealthStatus {
			st := obs.HealthStatus{Ready: true, Engine: engine}
			if versioned != nil {
				st.PolicyVersion = versioned.PolicyVersion()
			}
			if fd.Draining() {
				st.Ready = false
				st.Draining = true
				st.Detail = "front door draining"
			}
			return st
		}
		o := obs.NewServer(extra)
		addr, err := o.Start(obsAddr)
		if err != nil {
			fd.Shutdown(drain)
			return err
		}
		defer o.Close()
		log.Printf("observability on http://%s/", addr)
	}

	lis, err := net.Listen("tcp", listen)
	if err != nil {
		fd.Shutdown(drain)
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/query", fd.Handler())
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	log.Printf("front door on %s (%s admission, %d slots, %d shards)",
		lis.Addr(), opts.Controller.Name(), opts.MaxInFlight, len(fd.Status().(frontdoor.StatusData).Shards))

	select {
	case <-ctx.Done():
	case err = <-served: // the listener died under us
	}
	log.Printf("draining (timeout %v)...", drain)
	if !fd.Shutdown(drain) {
		log.Printf("drain timed out; exiting with queries in flight")
	}
	srv.Close()
	spilled := ""
	if provFile != nil {
		if err := rec.Flush(); err != nil {
			log.Printf("provenance flush: %v", err)
		}
		if err := provFile.Close(); err != nil {
			log.Printf("provenance close: %v", err)
		}
		spilled = ", spilled to " + provOut
	}
	st, ps := fd.Stats(), rec.Stats()
	log.Printf("final: submitted=%d admitted=%d shed=%d rejected=%d", st.Submitted, st.Admitted, st.Shed, st.Rejected)
	log.Printf("provenance: %d decisions recorded, %d joined%s", ps.Recorded, ps.Joined, spilled)
	return err
}
