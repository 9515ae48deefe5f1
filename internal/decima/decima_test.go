package decima

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/lsched"
	"repro/internal/workload"
)

func TestDecimaConfiguration(t *testing.T) {
	d := New(1)
	opts := d.Options()
	if opts.UseTCN || opts.UseGAT {
		t.Fatal("Decima must use the GCN encoder without attention")
	}
	if !opts.DisablePipelining {
		t.Fatal("Decima must not pipeline (black-box tasks)")
	}
	if d.Name() != "Decima" {
		t.Fatalf("name %q", d.Name())
	}
}

// TestDecimaNeverPipelines runs Decima over a streaming workload: every
// query must complete, and no decision may pipeline.
func TestDecimaNeverPipelines(t *testing.T) {
	pool, err := workload.NewPool(workload.BenchSSB, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := New(2)
	spy := &pipelineSpy{inner: d}
	rng := rand.New(rand.NewSource(2))
	sim := engine.NewSim(engine.SimConfig{Threads: 6, Seed: 2})
	res, err := sim.Run(spy, workload.Streaming(pool.Train, 6, 0.5, rng))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 6 {
		t.Fatalf("Decima completed %d of 6 queries", len(res.Durations))
	}
	if spy.decisions == 0 {
		t.Fatal("no decisions observed")
	}
	if spy.pipelined > 0 {
		t.Fatalf("Decima issued %d pipelined decisions", spy.pipelined)
	}
}

type pipelineSpy struct {
	inner     engine.Scheduler
	decisions int
	pipelined int
}

func (s *pipelineSpy) Name() string { return s.inner.Name() }

func (s *pipelineSpy) OnEvent(st *engine.State, ev engine.Event) []engine.Decision {
	ds := s.inner.OnEvent(st, ev)
	for _, d := range ds {
		if d.RootOpID >= 0 {
			s.decisions++
			if d.PipelineDepth > 0 {
				s.pipelined++
			}
		}
	}
	return ds
}

func TestDecimaTrainConfigAverageOnly(t *testing.T) {
	base := lsched.DefaultTrainConfig(1)
	cfg := TrainConfig(base)
	if cfg.W1 != 1 || cfg.W2 != 0 {
		t.Fatalf("Decima reward weights w1=%v w2=%v, want 1/0", cfg.W1, cfg.W2)
	}
}

// TestDecimaTrainDeterministic: two same-seed training runs of the
// Decima baseline give byte-identical checkpoints.
func TestDecimaTrainDeterministic(t *testing.T) {
	pool, err := workload.NewPool(workload.BenchTPCH, 41)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		d := New(41)
		cfg := TrainConfig(lsched.DefaultTrainConfig(41))
		cfg.Episodes = 8
		cfg.Rollouts = 4
		cfg.SimCfg = engine.SimConfig{Threads: 6, NoiseFrac: 0.1}
		cfg.Workload = func(ep int, rng *rand.Rand) []engine.Arrival {
			return workload.Streaming(pool.Train, 4, 0.5, rng)
		}
		cfg.BaselineKey = func(ep int) int { return ep % 4 }
		if _, err := lsched.Train(d, cfg); err != nil {
			t.Fatal(err)
		}
		ck, err := d.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("same-seed Decima training runs produced different checkpoint bytes")
	}
}
