// Package workload provides the TPC-H, SSB, and JOB benchmark workloads:
// physical plan templates mirroring each benchmark query's operator
// structure, schema catalogs with synthetic data generation, and the
// arrival processes (streaming with exponential inter-arrival gaps, and
// batching) used in the paper's evaluation.
package workload

import (
	"math"

	"repro/internal/plan"
)

// node is a fluent handle used by the template DSL below.
type node struct {
	b  *plan.Builder
	op *plan.Operator
}

// tmpl builds one query plan. Block counts are expressed per base
// relation and propagated through operators with selectivities, which is
// how the optimizer's estimates behave.
type tmpl struct {
	b  *plan.Builder
	sf float64
}

func newTmpl(name string, scaleFactor float64) *tmpl {
	if scaleFactor <= 0 {
		scaleFactor = 1
	}
	return &tmpl{b: plan.NewBuilder(name), sf: scaleFactor}
}

// blocksFor converts a base row-count-at-SF1 to a block count at the
// template's scale factor (one block per ~400k rows, minimum 1). The
// granularity is coarser than Quickstep's default block size; it keeps
// relative work-order counts faithful while letting a single core
// simulate thousands of training episodes.
func (t *tmpl) blocksFor(rowsAtSF1 float64) int {
	blocks := int(math.Ceil(rowsAtSF1 * t.sf / 400_000))
	if blocks < 1 {
		blocks = 1
	}
	return blocks
}

// scan adds a TableScan over a base relation.
func (t *tmpl) scan(rel string, rowsAtSF1 float64, cols ...string) node {
	op := t.b.Add(&plan.Operator{
		Type:           plan.TableScan,
		InputRelations: []string{rel},
		Columns:        cols,
		EstBlocks:      t.blocksFor(rowsAtSF1),
	})
	return node{b: t.b, op: op}
}

// childBlocks estimates the output block volume of a node.
func childBlocks(n node) int {
	blocks := int(math.Ceil(float64(n.op.EstBlocks) * n.op.Selectivity))
	if blocks < 1 {
		blocks = 1
	}
	return blocks
}

// sel filters the node's output with the given selectivity.
func (n node) sel(selectivity float64, cols ...string) node {
	op := n.b.Add(&plan.Operator{
		Type:           plan.Select,
		InputRelations: n.op.InputRelations,
		Columns:        cols,
		EstBlocks:      childBlocks(n),
		Selectivity:    selectivity,
	})
	n.b.ConnectAuto(n.op, op)
	return node{b: n.b, op: op}
}

// hashJoin joins build (smaller) with probe via BuildHash + ProbeHash.
// The build edge is pipeline-breaking; the probe edge pipelines.
func (n node) hashJoin(probe node, selectivity float64, cols ...string) node {
	rels := append(append([]string{}, n.op.InputRelations...), probe.op.InputRelations...)
	build := n.b.Add(&plan.Operator{
		Type:           plan.BuildHash,
		InputRelations: n.op.InputRelations,
		Columns:        cols,
		EstBlocks:      childBlocks(n),
	})
	n.b.ConnectAuto(n.op, build)
	probeOp := n.b.Add(&plan.Operator{
		Type:           plan.ProbeHash,
		InputRelations: rels,
		Columns:        cols,
		EstBlocks:      childBlocks(probe),
		Selectivity:    selectivity,
		CostFactor:     1 + 0.1*math.Log1p(float64(build.EstBlocks)),
	})
	n.b.Connect(build, probeOp, false)   // build side blocks the probe
	n.b.Connect(probe.op, probeOp, true) // probe side pipelines
	return node{b: n.b, op: probeOp}
}

// agg aggregates (pipeline breaker) then finalizes.
func (n node) agg(groups float64, cols ...string) node {
	op := n.b.Add(&plan.Operator{
		Type:           plan.Aggregate,
		InputRelations: n.op.InputRelations,
		Columns:        cols,
		EstBlocks:      childBlocks(n),
	})
	n.b.ConnectAuto(n.op, op)
	finBlocks := int(math.Ceil(groups / 400_000))
	if finBlocks < 1 {
		finBlocks = 1
	}
	fin := n.b.Add(&plan.Operator{
		Type:           plan.FinalizeAggregate,
		InputRelations: n.op.InputRelations,
		Columns:        cols,
		EstBlocks:      finBlocks,
	})
	n.b.ConnectAuto(op, fin)
	return node{b: n.b, op: fin}
}

// sortBy sorts the node's output (pipeline breaker).
func (n node) sortBy(cols ...string) node {
	op := n.b.Add(&plan.Operator{
		Type:           plan.Sort,
		InputRelations: n.op.InputRelations,
		Columns:        cols,
		EstBlocks:      childBlocks(n),
	})
	n.b.ConnectAuto(n.op, op)
	return node{b: n.b, op: op}
}

// topK keeps the first k rows of a sorted stream.
func (n node) topK() node {
	op := n.b.Add(&plan.Operator{
		Type:           plan.TopK,
		InputRelations: n.op.InputRelations,
		EstBlocks:      1,
	})
	n.b.ConnectAuto(n.op, op)
	return node{b: n.b, op: op}
}

// distinct removes duplicates (pipeline breaker).
func (n node) distinct(cols ...string) node {
	op := n.b.Add(&plan.Operator{
		Type:           plan.Distinct,
		InputRelations: n.op.InputRelations,
		Columns:        cols,
		EstBlocks:      childBlocks(n),
	})
	n.b.ConnectAuto(n.op, op)
	return node{b: n.b, op: op}
}

// done finalizes the template.
func (t *tmpl) done() *plan.Plan { return t.b.MustBuild() }

// done finalizes the plan from any node of it (the node must be the
// plan's sink for validation to pass).
func (n node) done() *plan.Plan { return n.b.MustBuild() }
