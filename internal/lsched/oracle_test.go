package lsched

import (
	"repro/internal/encoder"
	"repro/internal/engine"
	"repro/internal/provenance"
)

// tapeOracle is the reference scheduler Agent.OnEvent is tested
// against. It takes the same decision the way training evaluates it
// (replayStep): a freshly allocated snapshot from the allocating
// feature extractors, an uncached Encoder.Encode on the recording
// tape, and no scratch reuse. Two agents built from the same Options,
// one driven through OnEvent and one through the oracle, must emit the
// same decisions and flight-recorder vectors bit for bit; that is what
// lets OnEvent serve from the inference tape and the encoding cache.
type tapeOracle struct{ a *Agent }

func (o tapeOracle) Name() string { return o.a.Name() }

func (o tapeOracle) OnEvent(st *engine.State, _ engine.Event) []engine.Decision {
	a := o.a
	if len(st.Queries) == 0 {
		return nil
	}
	cands, _ := appendCandidates(nil, nil, st, a.pred.Config().MaxPipelineDepth)
	snap := &encoder.Snapshot{}
	var flat []float64 // QF, then per-op Feat and EdgeFeats: the order of Agent.featArena
	for _, q := range st.Queries {
		qs := encoder.QuerySnapshot{QueryID: q.ID, QF: a.ext.Query(st, q)}
		flat = append(flat, qs.QF...)
		for _, os := range q.OpStates {
			op := encoder.OpSnapshot{OpID: os.Op.ID, Feat: a.ext.Operator(st, q, os)}
			flat = append(flat, op.Feat...)
			for _, e := range os.Op.Children() {
				ef := a.ext.Edge(e)
				flat = append(flat, ef...)
				op.Children = append(op.Children, encoder.ChildRef{OpIdx: e.Child.ID, EdgeFeat: ef})
			}
			qs.Ops = append(qs.Ops, op)
		}
		snap.Queries = append(snap.Queries, qs)
	}
	t := a.tape
	t.Reset()
	enc := a.enc.Encode(t, snap)

	var decisions []engine.Decision
	if len(cands) > 0 {
		rootLogits := t.Concat(a.pred.RootLogits(t, enc, cands), a.pred.StopLogit(t, enc))
		stopIdx := len(cands)
		banned := make([]bool, len(cands)+1)
		budget := st.FreeThreads()
		if budget < 1 {
			budget = 1
		}
		if budget > a.opts.MaxDecisionsPerEvent {
			budget = a.opts.MaxDecisionsPerEvent
		}
		if budget > len(cands) {
			budget = len(cands)
		}
		mustActivate := !anyActiveWork(st)
		qid, action, actionArg := int64(-1), int32(-1), int32(0)
		for iter := 0; iter < budget; iter++ {
			banned[stopIdx] = mustActivate && iter == 0
			pick := a.sampleMasked(rootLogits.Val, banned)
			if pick < 0 || pick == stopIdx {
				break
			}
			c := cands[pick]
			pipeMax := c.MaxDepth
			if a.opts.DisablePipelining {
				pipeMax = 0
			}
			pipePick := a.sampleBounded(a.pred.PipelineLogits(t, enc, c).Val, pipeMax)
			if iter == 0 {
				qid, action, actionArg = int64(snap.Queries[c.QIdx].QueryID), int32(pick), int32(pipePick)
			}
			decisions = append(decisions, engine.Decision{
				QueryID:       snap.Queries[c.QIdx].QueryID,
				RootOpID:      c.OpID,
				PipelineDepth: pipePick,
			})
			banned[pick] = true
		}
		if a.prov != nil {
			a.prov.Record(provenance.KindSchedule, qid, "", a.provVersion,
				flat, rootLogits.Val, action, actionArg, criticalPathPick(cands))
		}
	}
	for qi := range snap.Queries {
		parLogits := a.pred.ParallelismLogits(t, enc, qi, snap.Queries[qi].QF)
		bucket := a.sampleBounded(parLogits.Val, len(parLogits.Val)-1)
		decisions = append(decisions, engine.Decision{
			QueryID:  snap.Queries[qi].QueryID,
			RootOpID: -1,
			Threads:  a.pred.BucketThreads(bucket, st.TotalThreads()),
		})
	}
	return decisions
}
