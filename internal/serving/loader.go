package serving

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/lsched"
	"repro/internal/policystore"
)

// LSchedLoader returns the cluster.NodeOptions.Loader function that
// builds a greedy LSched agent from each checkpoint's params blob. Every load
// constructs a fresh agent (own tapes, own encoding cache), so a
// candidate under evaluation never shares mutable state with the
// serving policy. nn.Params.Load bumps the params version counter,
// which keys the encoder cache — a loaded agent can never serve
// encodings computed under different parameter values.
func LSchedLoader(opts lsched.Options) func(ck *policystore.Checkpoint) (engine.Scheduler, error) {
	return func(ck *policystore.Checkpoint) (engine.Scheduler, error) {
		agent := lsched.New(opts)
		if err := agent.Restore(ck.Params); err != nil {
			return nil, fmt.Errorf("serving: restore policy v%d: %w", ck.Manifest.Version, err)
		}
		agent.SetGreedy(true)
		return agent, nil
	}
}
