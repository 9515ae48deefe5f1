// Package lsched implements the paper's primary contribution: the
// LSched scheduling agent. It wires the feature extractor (§4.1), Query
// Encoder (§4.2–4.3), and Scheduling Predictor (§5.3) into an
// engine.Scheduler, and provides REINFORCE training with the combined
// average/tail-latency reward (§6) plus layer-freezing transfer learning.
package lsched

import (
	"math"
	"math/rand"

	"repro/internal/encoder"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/predictor"
	"repro/internal/provenance"
)

// Options configures an agent. The ablation switches correspond to the
// Fig. 15 variants.
type Options struct {
	// Seed drives parameter initialization and action sampling.
	Seed int64
	// Hidden is the embedding width.
	Hidden int
	// ConvLayers is the number of stacked convolution layers.
	ConvLayers int
	// UseTCN selects the customized tree convolution (false = Decima-
	// style sequential message passing — the "w/o Triangle Convolution"
	// ablation).
	UseTCN bool
	// UseGAT enables attention re-weighting ("w/o Graph Attention" when
	// false).
	UseGAT bool
	// UseEdges includes the edge terms in the triangle filters; false
	// degenerates Eq. 2 to stock node-only tree convolution (an extra
	// ablation beyond Fig. 15).
	UseEdges bool
	// DisablePipelining forces pipeline degree 0 ("w/o Pipelining
	// Prediction" ablation; also part of the Decima baseline).
	DisablePipelining bool
	// Greedy selects argmax actions (evaluation); false samples from the
	// policy (training/exploration).
	Greedy bool
	// MaxDecisionsPerEvent bounds the scheduling loop per event.
	MaxDecisionsPerEvent int
	// Name overrides the scheduler name (the Decima baseline wraps this
	// agent under its own name).
	Name string
	// FeatCfg sets feature dimensions; zero value selects defaults.
	FeatCfg features.Config
}

// DefaultOptions returns the configuration used in the experiments.
func DefaultOptions(seed int64) Options {
	return Options{
		Seed:                 seed,
		Hidden:               16,
		ConvLayers:           2,
		UseTCN:               true,
		UseGAT:               true,
		UseEdges:             true,
		MaxDecisionsPerEvent: 8,
		FeatCfg:              features.DefaultConfig(),
	}
}

// rootChoice records one sampled execution-root action (with its
// pipeline degree) within an event; earlier picks are banned for later
// ones (sampling without replacement). pick == len(cands) is the stop
// action (schedule nothing further at this event); noStop records that
// stopping was masked out for this choice (the safety rule forcing at
// least one activation when the system would otherwise idle).
type rootChoice struct {
	pick     int
	pipePick int
	pipeMax  int
	noStop   bool
}

// step records everything needed to replay one scheduling event for
// REINFORCE: the snapshot the policy saw, the candidate set, the
// sampled root/pipeline actions, the per-query parallelism buckets
// (§5.3.3 predicts a degree for every running query), and the event
// time (for the H_d reward terms).
type step struct {
	snap        *encoder.Snapshot
	cands       []predictor.Candidate
	roots       []rootChoice
	grants      []int // parallelism bucket per query, parallel to snap.Queries
	time        float64
	liveQueries int
}

// Agent is the LSched scheduling agent.
type Agent struct {
	opts   Options
	params *nn.Params
	enc    *encoder.Encoder
	pred   *predictor.Predictor
	ext    *features.Extractor
	rng    *rand.Rand
	// tape is the recording tape used for gradient replay; it is reused
	// across updates to recycle its arenas.
	tape *nn.Tape
	// inferTape is the gradient-free tape OnEvent runs forward passes
	// on: no Grad slabs, no backward closures.
	inferTape *nn.Tape
	// cache memoizes per-query encodings across events.
	cache *encoder.Cache
	// adm is the lazily created admission head (see Admission).
	adm *AdmissionHead

	recording bool
	episode   []*step

	// Per-event scratch reused by OnEvent. An Agent drives one engine
	// from one goroutine, so plain fields are safe; everything
	// here is dead by the time OnEvent returns (steps recorded for
	// replay are deep copies).
	snapScratch   encoder.Snapshot
	featArena     []float64
	planScratch   []*plan.Operator
	candScratch   []predictor.Candidate
	decScratch    []engine.Decision
	rootScratch   []rootChoice
	grantScratch  []int
	bannedScratch []bool
	probScratch   []float64

	// Observability handles (nil when not instrumented): how often the
	// policy was invoked, how many roots it activated vs. declined
	// (stop actions), and the candidate-set size it last saw.
	mEvents      *metrics.Counter
	mRoots       *metrics.Counter
	mStops       *metrics.Counter
	mCandidates  *metrics.Gauge
	mCacheHits   *metrics.Gauge
	mCacheMisses *metrics.Gauge

	// prov, when attached, receives one flight-recorder record per
	// scheduling event with candidates: the flat feature arena the
	// encoder consumed, the root logits (stop logit last), the chosen
	// root, and the critical-path heuristic's counterfactual pick.
	// provVersion stamps records with the serving policy-store version.
	prov        *provenance.Recorder
	provVersion int
}

// New builds an agent with freshly initialized parameters.
func New(opts Options) *Agent {
	if opts.Hidden <= 0 {
		opts.Hidden = 16
	}
	if opts.ConvLayers <= 0 {
		opts.ConvLayers = 2
	}
	if opts.MaxDecisionsPerEvent <= 0 {
		opts.MaxDecisionsPerEvent = 8
	}
	if opts.FeatCfg.BlockFeat == 0 {
		opts.FeatCfg = features.DefaultConfig()
	}
	params := nn.NewParams(opts.Seed)
	ext := features.NewExtractor(opts.FeatCfg)
	encCfg := encoder.DefaultConfig(opts.FeatCfg.OpDim(), opts.FeatCfg.EdgeDim(), opts.FeatCfg.QueryDim())
	encCfg.Hidden = opts.Hidden
	encCfg.Layers = opts.ConvLayers
	encCfg.UseTCN = opts.UseTCN
	encCfg.UseGAT = opts.UseGAT
	encCfg.UseEdges = opts.UseEdges
	a := &Agent{
		opts:   opts,
		params: params,
		enc:    encoder.New(params, encCfg),
		pred:   predictor.New(params, predictor.DefaultConfig(opts.Hidden, opts.FeatCfg.QueryDim())),
		ext:    ext,
		rng:    rand.New(rand.NewSource(opts.Seed + 7919)),
		tape:   nn.NewTape(),
		cache:  encoder.NewCache(),
	}
	a.inferTape = nn.NewTape()
	a.inferTape.SetInference(true)
	return a
}

// Name implements engine.Scheduler.
func (a *Agent) Name() string {
	if a.opts.Name != "" {
		return a.opts.Name
	}
	return "LSched"
}

// Params exposes the parameter registry (for checkpointing, transfer
// learning, and tests).
func (a *Agent) Params() *nn.Params { return a.params }

// Options returns the agent's configuration.
func (a *Agent) Options() Options { return a.opts }

// SetGreedy toggles argmax action selection.
func (a *Agent) SetGreedy(g bool) { a.opts.Greedy = g }

// EncodingCacheStats reports the encoding cache's hit/miss counters.
func (a *Agent) EncodingCacheStats() (hits, misses uint64) {
	return a.cache.Hits(), a.cache.Misses()
}

// SetProvenance attaches a decision flight recorder; every subsequent
// scheduling event with candidates records one KindSchedule entry. A
// nil recorder detaches. An Agent drives one engine from one goroutine
// (the OnEvent contract), so no locking is needed.
func (a *Agent) SetProvenance(r *provenance.Recorder) { a.prov = r }

// Provenance returns the attached flight recorder (nil when none).
func (a *Agent) Provenance() *provenance.Recorder { return a.prov }

// SetPolicyVersion stamps subsequent provenance records with the
// policy-store version these parameters were loaded from (0 = not from
// the store). serving.HotAgent calls this on install so hot swaps stay
// attributable record by record.
func (a *Agent) SetPolicyVersion(v int) { a.provVersion = v }

// PolicyVersion returns the stamped policy-store version.
func (a *Agent) PolicyVersion() int { return a.provVersion }

// QueryCompleted implements engine.QueryObserver: it joins the query's
// recorded scheduling decisions to their outcome. Simulated engines
// carry no deadlines, so completion itself counts as deadline-met.
func (a *Agent) QueryCompleted(queryID int, arrival, completion float64) {
	a.prov.JoinOutcome(provenance.KindSchedule, int64(queryID), provenance.Outcome{
		LatencySecs: completion - arrival,
		DeadlineMet: true,
	})
}

// reseedActions re-seeds the action-sampling stream. Training re-seeds
// per episode so an episode's action draws depend only on its index,
// which is what lets parallel rollouts replicate the sequential
// schedule draw-for-draw.
func (a *Agent) reseedActions(seed int64) { a.rng = rand.New(rand.NewSource(seed)) }

// Instrument attaches decision-level observability to the agent. A nil
// registry leaves it un-instrumented (the zero-overhead default).
func (a *Agent) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	a.mEvents = reg.Counter("lsched_events")
	a.mRoots = reg.Counter("lsched_root_decisions")
	a.mStops = reg.Counter("lsched_stop_actions")
	a.mCandidates = reg.Gauge("lsched_candidates")
	a.mCacheHits = reg.Gauge("lsched_enc_cache_hits")
	a.mCacheMisses = reg.Gauge("lsched_enc_cache_misses")
}

// startRecording clears and enables the episode buffer.
func (a *Agent) startRecording() { a.recording = true; a.episode = a.episode[:0] }

// stopRecording disables the buffer and returns the recorded steps.
func (a *Agent) stopRecording() []*step {
	a.recording = false
	out := a.episode
	a.episode = nil
	return out
}

// arenaTail returns the arena slice written since base, capped so later
// appends cannot alias into it.
func arenaTail(arena []float64, base int) []float64 {
	return arena[base:len(arena):len(arena)]
}

// buildSnapshot captures the feature tensors of every running query
// in agent-owned buffers: all feature vectors land in one flat float64
// arena and the snapshot structure is recycled event to event, so a
// steady-state event allocates nothing. The returned snapshot is valid
// until the next OnEvent; recording deep-copies it first.
func (a *Agent) buildSnapshot(st *engine.State) *encoder.Snapshot {
	snap := &a.snapScratch
	snap.Queries = snap.Queries[:0]
	a.featArena = a.featArena[:0]
	for _, q := range st.Queries {
		if len(snap.Queries) < cap(snap.Queries) {
			snap.Queries = snap.Queries[:len(snap.Queries)+1]
		} else {
			snap.Queries = append(snap.Queries, encoder.QuerySnapshot{})
		}
		qs := &snap.Queries[len(snap.Queries)-1]
		qs.QueryID = q.ID
		base := len(a.featArena)
		a.featArena = a.ext.AppendQuery(a.featArena, st, q)
		qs.QF = arenaTail(a.featArena, base)
		qs.Ops = qs.Ops[:0]
		for _, os := range q.OpStates {
			if len(qs.Ops) < cap(qs.Ops) {
				qs.Ops = qs.Ops[:len(qs.Ops)+1]
			} else {
				qs.Ops = append(qs.Ops, encoder.OpSnapshot{})
			}
			op := &qs.Ops[len(qs.Ops)-1]
			op.OpID = os.Op.ID
			base = len(a.featArena)
			a.featArena = a.ext.AppendOperator(a.featArena, st, q, os)
			op.Feat = arenaTail(a.featArena, base)
			op.Children = op.Children[:0]
			for _, e := range os.Op.Children() {
				base = len(a.featArena)
				a.featArena = a.ext.AppendEdge(a.featArena, e)
				op.Children = append(op.Children, encoder.ChildRef{
					OpIdx:    e.Child.ID,
					EdgeFeat: arenaTail(a.featArena, base),
				})
			}
		}
	}
	return snap
}

// cloneSnapshot deep-copies a scratch-backed snapshot so a recorded
// step survives the next event's buffer reuse.
func cloneSnapshot(snap *encoder.Snapshot) *encoder.Snapshot {
	out := &encoder.Snapshot{Queries: make([]encoder.QuerySnapshot, len(snap.Queries))}
	for qi := range snap.Queries {
		src := &snap.Queries[qi]
		dst := &out.Queries[qi]
		dst.QueryID = src.QueryID
		dst.QF = append([]float64(nil), src.QF...)
		dst.Ops = make([]encoder.OpSnapshot, len(src.Ops))
		for oi := range src.Ops {
			so := &src.Ops[oi]
			do := &dst.Ops[oi]
			do.OpID = so.OpID
			do.Feat = append([]float64(nil), so.Feat...)
			if len(so.Children) > 0 {
				do.Children = make([]encoder.ChildRef, len(so.Children))
				for ci := range so.Children {
					do.Children[ci] = encoder.ChildRef{
						OpIdx:    so.Children[ci].OpIdx,
						EdgeFeat: append([]float64(nil), so.Children[ci].EdgeFeat...),
					}
				}
			}
		}
	}
	return out
}

// criticalPathPick is the heuristic counterfactual recorded with each
// scheduling decision: the candidate the critical-path baseline would
// activate (longest pipeline path, first wins ties), mirroring
// heuristics.CriticalPath without importing it.
func criticalPathPick(cands []predictor.Candidate) int32 {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].MaxDepth > cands[best].MaxDepth {
			best = i
		}
	}
	return int32(best)
}

// anyActiveWork reports whether any query has an activated, unfinished
// operator — i.e. whether the engine has something to run even if the
// scheduler declines to schedule more.
func anyActiveWork(st *engine.State) bool {
	for _, q := range st.Queries {
		for _, os := range q.OpStates {
			if os.Active && !os.Done {
				return true
			}
		}
	}
	return false
}

// appendCandidates lists the schedulable roots across all queries,
// paired with their current longest pipeline path, appending into dst.
// rootsScratch is reused per query; both slices are returned so callers
// can keep their grown capacity.
func appendCandidates(dst []predictor.Candidate, rootsScratch []*plan.Operator, st *engine.State, maxDepth int) ([]predictor.Candidate, []*plan.Operator) {
	for qi, q := range st.Queries {
		rootsScratch = q.AppendSchedulableRoots(rootsScratch[:0])
		for _, op := range rootsScratch {
			d := q.Plan.LongestPipelinePathFrom(op)
			if d > maxDepth {
				d = maxDepth
			}
			dst = append(dst, predictor.Candidate{QIdx: qi, OpIdx: op.ID, OpID: op.ID, MaxDepth: d})
		}
	}
	return dst, rootsScratch
}

// OnEvent implements engine.Scheduler: it encodes the state once, takes
// up to MaxDecisionsPerEvent root decisions (sampled without
// replacement, bounded by the free thread count), and then predicts the
// parallelism degree of every running query (§5.3.3), emitting
// grant-only decisions so thread shares are re-balanced at each event.
//
// The forward pass runs on a gradient-free tape, unchanged queries are
// served from the encoding cache, and every buffer is agent-owned
// scratch, so a steady-state event allocates almost nothing. The same
// path serves while recording an episode: the sampled actions only
// depend on forward values, which are bit-identical across tape modes,
// and replayStep re-runs the forward pass on the recording tape when
// gradients are needed.
func (a *Agent) OnEvent(st *engine.State, ev Event) []engine.Decision {
	if len(st.Queries) == 0 {
		return nil
	}
	a.mEvents.Inc()
	cands, planScratch := appendCandidates(a.candScratch[:0], a.planScratch, st, a.pred.Config().MaxPipelineDepth)
	a.candScratch, a.planScratch = cands, planScratch
	snap := a.buildSnapshot(st)
	t := a.inferTape
	t.Reset()
	enc := a.enc.EncodeWithCache(t, snap, a.cache, a.params.Version())
	a.mCacheHits.Set(float64(a.cache.Hits()))
	a.mCacheMisses.Set(float64(a.cache.Misses()))
	a.mCandidates.Set(float64(len(cands)))

	decisions := a.decScratch[:0]
	roots := a.rootScratch[:0]
	if len(cands) > 0 {
		// Root logits do not change within one event; sampling without
		// replacement only needs the ban mask. A trailing stop logit
		// lets the policy decline to schedule more — deferring work is
		// how staggered pipelines and buffer headroom are expressed.
		rootLogits := t.Concat(a.pred.RootLogits(t, enc, cands), a.pred.StopLogit(t, enc))
		stopIdx := len(cands)
		banned := a.boolScratch(len(cands) + 1)
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
		// Safety: if nothing is running anywhere, stopping without a
		// single activation would idle the engine forever.
		mustActivate := !anyActiveWork(st)
		for iter := 0; iter < budget; iter++ {
			noStop := mustActivate && iter == 0
			banned[stopIdx] = noStop
			pick := a.sampleMasked(rootLogits.Val, banned)
			if pick < 0 {
				break
			}
			if pick == stopIdx {
				a.mStops.Inc()
				roots = append(roots, rootChoice{pick: pick})
				break
			}
			c := cands[pick]
			pipeMax := c.MaxDepth
			if a.opts.DisablePipelining {
				pipeMax = 0
			}
			pipeLogits := a.pred.PipelineLogits(t, enc, c)
			pipePick := a.sampleBounded(pipeLogits.Val, pipeMax)
			a.mRoots.Inc()
			decisions = append(decisions, engine.Decision{
				QueryID:       snap.Queries[c.QIdx].QueryID,
				RootOpID:      c.OpID,
				PipelineDepth: pipePick,
			})
			roots = append(roots, rootChoice{pick: pick, pipePick: pipePick, pipeMax: pipeMax, noStop: noStop})
			banned[pick] = true
		}
		if a.prov != nil {
			// Flight-record the root decision: the exact flat feature
			// arena the encoder consumed, every root logit (stop last),
			// the first pick taken, and what the critical-path heuristic
			// would have activated instead.
			qid, action, actionArg := int64(-1), int32(-1), int32(0)
			if len(roots) > 0 && roots[0].pick < stopIdx {
				c := cands[roots[0].pick]
				qid = int64(snap.Queries[c.QIdx].QueryID)
				action = int32(roots[0].pick)
				actionArg = int32(roots[0].pipePick)
			}
			a.prov.Record(provenance.KindSchedule, qid, "", a.provVersion,
				a.featArena, rootLogits.Val, action, actionArg, criticalPathPick(cands))
		}
	}
	// Parallelism degree for every running query.
	if cap(a.grantScratch) < len(snap.Queries) {
		a.grantScratch = make([]int, len(snap.Queries))
	}
	grants := a.grantScratch[:len(snap.Queries)]
	for qi := range snap.Queries {
		parLogits := a.pred.ParallelismLogits(t, enc, qi, snap.Queries[qi].QF)
		bucket := a.sampleBounded(parLogits.Val, len(parLogits.Val)-1)
		grants[qi] = bucket
		decisions = append(decisions, engine.Decision{
			QueryID:  snap.Queries[qi].QueryID,
			RootOpID: -1,
			Threads:  a.pred.BucketThreads(bucket, st.TotalThreads()),
		})
	}
	if a.recording {
		// The scratch backing everything is reused next event, so the
		// recorded step keeps its own deep copies.
		a.episode = append(a.episode, &step{
			snap:        cloneSnapshot(snap),
			cands:       append([]predictor.Candidate(nil), cands...),
			roots:       append([]rootChoice(nil), roots...),
			grants:      append([]int(nil), grants...),
			time:        st.Now,
			liveQueries: len(st.Queries),
		})
	}
	// Keep grown capacity for the next event.
	a.decScratch = decisions[:0]
	a.rootScratch = roots[:0]
	return decisions
}

// boolScratch returns a zeroed agent-owned bool slice of length n.
func (a *Agent) boolScratch(n int) []bool {
	if cap(a.bannedScratch) < n {
		a.bannedScratch = make([]bool, n)
	}
	b := a.bannedScratch[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// probs returns a zeroed agent-owned float64 scratch slice of length n
// (sampling helpers run strictly sequentially within one event).
func (a *Agent) probs(n int) []float64 {
	if cap(a.probScratch) < n {
		a.probScratch = make([]float64, n)
	}
	p := a.probScratch[:n]
	for i := range p {
		p[i] = 0
	}
	return p
}

// sampleMasked samples (or argmaxes) an index from softmax(logits) with
// banned entries removed; returns -1 when everything is banned.
func (a *Agent) sampleMasked(logits []float64, banned []bool) int {
	best, bestV := -1, math.Inf(-1)
	max := math.Inf(-1)
	for i, v := range logits {
		if banned[i] {
			continue
		}
		if v > max {
			max = v
		}
		if v > bestV {
			best, bestV = i, v
		}
	}
	if best < 0 {
		return -1
	}
	if a.opts.Greedy {
		return best
	}
	sum := 0.0
	probs := a.probs(len(logits))
	for i, v := range logits {
		if banned[i] {
			continue
		}
		probs[i] = math.Exp(v - max)
		sum += probs[i]
	}
	r := a.rng.Float64() * sum
	for i, p := range probs {
		if banned[i] {
			continue
		}
		r -= p
		if r <= 0 {
			return i
		}
	}
	return best
}

// sampleBounded samples from softmax(logits[0..bound]) inclusive.
func (a *Agent) sampleBounded(logits []float64, bound int) int {
	if bound >= len(logits) {
		bound = len(logits) - 1
	}
	if bound <= 0 {
		return 0
	}
	sub := logits[:bound+1]
	if a.opts.Greedy {
		best, bestV := 0, math.Inf(-1)
		for i, v := range sub {
			if v > bestV {
				best, bestV = i, v
			}
		}
		return best
	}
	max := math.Inf(-1)
	for _, v := range sub {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	probs := a.probs(len(sub))
	for i, v := range sub {
		probs[i] = math.Exp(v - max)
		sum += probs[i]
	}
	r := a.rng.Float64() * sum
	for i, p := range probs {
		r -= p
		if r <= 0 {
			return i
		}
	}
	return bound
}

// Event aliases engine.Event so callers outside the engine package read
// naturally.
type Event = engine.Event
