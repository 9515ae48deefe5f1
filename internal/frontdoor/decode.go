package frontdoor

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/plan"
)

// Request is the front door's wire format (JSON over HTTP at the
// ingress, gob inside cluster.SubmitRequest): tenant identity, SLO class, deadline, and a plan summary — one
// OpSpec per operator, which is all admission pricing needs (a query
// that has not started has no per-operator history; the cost model
// prices it by operator type).
type Request struct {
	Tenant string `json:"tenant"`
	// Class is "latency", "throughput", or "" (defaults to throughput).
	Class string `json:"class,omitempty"`
	// DeadlineMS is the latency budget in milliseconds from submission;
	// 0 means none, negative is rejected.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Ops summarizes the plan's operators.
	Ops []OpSpec `json:"ops"`
}

// OpSpec is one operator of the plan summary.
type OpSpec struct {
	// Type is the plan.OpType ordinal.
	Type int `json:"type"`
	// Blocks is the optimizer's block-count estimate (work-order count).
	Blocks int `json:"blocks"`
}

// Wire-format bounds: a request violating any of them is rejected
// before touching a queue.
const (
	// MaxTenantLen bounds tenant identifiers.
	MaxTenantLen = 64
	// MaxRequestOps bounds the plan summary (an "oversized plan" is an
	// abuse vector, not a query).
	MaxRequestOps = 512
	// MaxOpBlocks bounds one operator's block estimate.
	MaxOpBlocks = 1 << 20
	// MaxRequestBytes bounds the encoded request body.
	MaxRequestBytes = 1 << 20
	// MaxDeadlineMS bounds the deadline (24h) so arithmetic on it
	// cannot overflow a time.Duration.
	MaxDeadlineMS = 24 * 60 * 60 * 1000
)

// DecodeRequest parses and validates a JSON request body into a Query.
// It is the fuzzed boundary: any input either yields a fully validated
// query or an error — never a panic, and never a query that can wedge
// a queue slot.
func DecodeRequest(data []byte) (*Query, error) {
	if len(data) > MaxRequestBytes {
		return nil, fmt.Errorf("frontdoor: request too large (%d bytes > %d)", len(data), MaxRequestBytes)
	}
	var req Request
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("frontdoor: bad request encoding: %w", err)
	}
	return req.Validate()
}

// Validate checks the request's fields and converts it into a Query.
func (r *Request) Validate() (*Query, error) {
	if err := validTenant(r.Tenant); err != nil {
		return nil, err
	}
	class, err := parseClass(r.Class)
	if err != nil {
		return nil, err
	}
	if r.DeadlineMS < 0 {
		return nil, fmt.Errorf("frontdoor: negative deadline %dms", r.DeadlineMS)
	}
	if r.DeadlineMS > MaxDeadlineMS {
		return nil, fmt.Errorf("frontdoor: deadline %dms exceeds %dms", r.DeadlineMS, MaxDeadlineMS)
	}
	if len(r.Ops) == 0 {
		return nil, fmt.Errorf("frontdoor: empty plan summary")
	}
	if len(r.Ops) > MaxRequestOps {
		return nil, fmt.Errorf("frontdoor: plan summary has %d operators (max %d)", len(r.Ops), MaxRequestOps)
	}
	ops := make([]costmodel.OpWork, len(r.Ops))
	for i, op := range r.Ops {
		if op.Type < 0 || op.Type >= plan.NumOpTypes {
			return nil, fmt.Errorf("frontdoor: op %d: unknown operator type %d", i, op.Type)
		}
		if op.Blocks < 0 || op.Blocks > MaxOpBlocks {
			return nil, fmt.Errorf("frontdoor: op %d: block estimate %d out of range", i, op.Blocks)
		}
		ops[i] = costmodel.OpWork{Key: op.Type, Units: op.Blocks}
	}
	return &Query{
		Tenant:   r.Tenant,
		Class:    class,
		Deadline: time.Duration(r.DeadlineMS) * time.Millisecond,
		Ops:      ops,
	}, nil
}

// validTenant enforces the tenant-identifier alphabet: 1..MaxTenantLen
// characters of [a-zA-Z0-9_-]. Identifiers land in metric labels and
// log lines, so the alphabet is strict.
func validTenant(t string) error {
	if t == "" {
		return fmt.Errorf("frontdoor: missing tenant")
	}
	if len(t) > MaxTenantLen {
		return fmt.Errorf("frontdoor: tenant identifier longer than %d bytes", MaxTenantLen)
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		ok := c == '_' || c == '-' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("frontdoor: tenant identifier contains %q", c)
		}
	}
	return nil
}

func parseClass(s string) (Class, error) {
	switch s {
	case "latency":
		return ClassLatency, nil
	case "", "throughput":
		return ClassThroughput, nil
	}
	return 0, fmt.Errorf("frontdoor: unknown SLO class %q", s)
}

// SummarizePlan builds a Request plan summary from a real plan: one
// OpSpec per operator, carrying the optimizer's block estimate.
func SummarizePlan(p *plan.Plan) []OpSpec {
	ops := make([]OpSpec, 0, len(p.Ops))
	for _, op := range p.Ops {
		ops = append(ops, OpSpec{Type: int(op.Type), Blocks: op.EstBlocks})
	}
	return ops
}
