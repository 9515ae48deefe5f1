package workload

import (
	"fmt"

	"repro/internal/plan"
)

// IMDB relation row counts (the 7.2 GB JOB dataset; fixed, no scale
// factor).
var imdbRows = map[string]float64{
	"title":           2_528_312,
	"movie_info":      14_835_720,
	"cast_info":       36_244_344,
	"movie_companies": 2_609_129,
	"movie_keyword":   4_523_930,
	"movie_info_idx":  1_380_035,
	"name":            4_167_491,
	"company_name":    234_997,
	"keyword":         134_170,
	"info_type":       113,
	"company_type":    4,
	"kind_type":       7,
	"char_name":       3_140_339,
	"role_type":       12,
	"aka_name":        901_343,
	"person_info":     2_963_664,
	"complete_cast":   135_086,
	"comp_cast_type":  4,
	"aka_title":       361_472,
	"link_type":       18,
	"movie_link":      29_997,
}

// jobFamily describes one of JOB's 33 query families: the chain of
// relations joined onto the title fact table, and how many lettered
// variants (a, b, c, …) the family has. Variants share the join graph
// and differ in predicate selectivity, exactly as in the benchmark.
type jobFamily struct {
	id       int
	rels     []string
	variants int
}

// jobFamilies lists the 33 families. The relation chains follow the
// published queries' join graphs (movie-centric star/chain mixes); the
// variant counts sum to 113.
var jobFamilies = []jobFamily{
	{1, []string{"company_type", "movie_companies", "title", "movie_info_idx", "info_type"}, 4},
	{2, []string{"company_name", "movie_companies", "title", "movie_keyword", "keyword"}, 4},
	{3, []string{"keyword", "movie_keyword", "title", "movie_info"}, 3},
	{4, []string{"info_type", "movie_info_idx", "title", "movie_keyword", "keyword"}, 3},
	{5, []string{"company_type", "movie_companies", "title", "movie_info", "info_type"}, 3},
	{6, []string{"keyword", "movie_keyword", "title", "cast_info", "name"}, 6},
	{7, []string{"aka_name", "name", "person_info", "info_type", "cast_info", "title", "movie_link", "link_type"}, 3},
	{8, []string{"company_name", "movie_companies", "company_type", "title", "cast_info", "role_type", "name", "aka_name"}, 4},
	{9, []string{"company_name", "movie_companies", "title", "cast_info", "role_type", "name", "char_name", "aka_name"}, 4},
	{10, []string{"company_name", "movie_companies", "company_type", "title", "cast_info", "role_type", "char_name"}, 3},
	{11, []string{"company_name", "movie_companies", "company_type", "title", "movie_link", "link_type", "movie_keyword", "keyword"}, 4},
	{12, []string{"company_name", "movie_companies", "company_type", "title", "movie_info", "info_type", "movie_info_idx"}, 3},
	{13, []string{"company_name", "movie_companies", "company_type", "title", "movie_info_idx", "info_type", "kind_type", "movie_info"}, 4},
	{14, []string{"keyword", "movie_keyword", "title", "kind_type", "movie_info", "info_type", "movie_info_idx"}, 3},
	{15, []string{"company_name", "movie_companies", "company_type", "title", "movie_info", "info_type", "aka_title", "movie_keyword", "keyword"}, 4},
	{16, []string{"company_name", "movie_companies", "title", "movie_keyword", "keyword", "cast_info", "name", "aka_name"}, 4},
	{17, []string{"company_name", "movie_companies", "title", "movie_keyword", "keyword", "cast_info", "name"}, 6},
	{18, []string{"info_type", "movie_info", "title", "movie_info_idx", "cast_info", "name"}, 3},
	{19, []string{"company_name", "movie_companies", "title", "movie_info", "info_type", "cast_info", "role_type", "name", "aka_name", "char_name"}, 4},
	{20, []string{"complete_cast", "comp_cast_type", "title", "kind_type", "cast_info", "char_name", "name", "movie_keyword", "keyword"}, 3},
	{21, []string{"company_name", "movie_companies", "company_type", "title", "movie_link", "link_type", "movie_info", "info_type", "movie_keyword", "keyword"}, 3},
	{22, []string{"company_name", "movie_companies", "company_type", "title", "kind_type", "movie_info", "info_type", "movie_info_idx", "movie_keyword", "keyword"}, 4},
	{23, []string{"complete_cast", "comp_cast_type", "title", "kind_type", "movie_info", "info_type", "movie_companies", "company_name", "company_type", "movie_keyword", "keyword"}, 3},
	{24, []string{"company_name", "movie_companies", "title", "movie_info", "info_type", "cast_info", "role_type", "name", "char_name", "movie_keyword", "keyword"}, 2},
	{25, []string{"movie_info", "info_type", "title", "movie_info_idx", "cast_info", "name", "movie_keyword", "keyword"}, 3},
	{26, []string{"complete_cast", "comp_cast_type", "title", "kind_type", "cast_info", "char_name", "name", "movie_info_idx", "info_type", "movie_keyword", "keyword"}, 3},
	{27, []string{"complete_cast", "comp_cast_type", "title", "movie_link", "link_type", "movie_info", "info_type", "movie_companies", "company_name", "company_type", "movie_keyword", "keyword"}, 3},
	{28, []string{"complete_cast", "comp_cast_type", "title", "kind_type", "movie_info", "info_type", "movie_info_idx", "movie_companies", "company_name", "company_type", "movie_keyword", "keyword"}, 3},
	{29, []string{"aka_name", "name", "person_info", "info_type", "cast_info", "char_name", "role_type", "title", "movie_companies", "company_name", "movie_keyword", "keyword", "movie_info", "complete_cast", "comp_cast_type"}, 3},
	{30, []string{"complete_cast", "comp_cast_type", "title", "movie_info", "info_type", "movie_info_idx", "cast_info", "name", "movie_keyword", "keyword"}, 3},
	{31, []string{"company_name", "movie_companies", "title", "movie_info", "info_type", "movie_info_idx", "cast_info", "name", "movie_keyword", "keyword"}, 3},
	{32, []string{"link_type", "movie_link", "title", "movie_keyword", "keyword"}, 2},
	{33, []string{"company_name", "movie_companies", "company_type", "title", "kind_type", "movie_link", "link_type", "movie_info_idx", "info_type"}, 3},
}

// variant selectivities: each lettered variant tightens/loosens the
// dimension predicates, as JOB's a/b/c variants do.
var jobVariantSel = []float64{0.05, 0.012, 0.15, 0.03, 0.08, 0.005}

// JOB returns the 113 Join Order Benchmark query plans. Each plan is a
// left-deep chain of hash joins over the family's relation list (small
// relations build, large relations probe), mirroring the join-heavy
// shapes — some queries exceed 10 joins — that make JOB the paper's most
// scheduling-sensitive benchmark.
func JOB() []*plan.Plan {
	var plans []*plan.Plan
	for _, f := range jobFamilies {
		for v := 0; v < f.variants; v++ {
			plans = append(plans, jobQuery(f, v))
		}
	}
	return plans
}

func jobQuery(f jobFamily, variant int) *plan.Plan {
	t := newTmpl(fmt.Sprintf("job-%d%c", f.id, 'a'+variant), 1)
	sel := jobVariantSel[variant%len(jobVariantSel)]
	// Start from the first relation, filtered; join each next relation.
	// Small relations (<500k rows) become build sides with predicates;
	// large ones probe.
	cur := t.scan(f.rels[0], imdbRows[f.rels[0]], f.rels[0]+"_id").sel(sel, f.rels[0]+"_attr")
	for i := 1; i < len(f.rels); i++ {
		rel := f.rels[i]
		next := t.scan(rel, imdbRows[rel], rel+"_id")
		if imdbRows[rel] < 500_000 {
			// Filtered small relation: it builds, current result probes.
			next = next.sel(sel*2, rel+"_attr")
			cur = next.hashJoin(cur, sel, rel+"_id")
		} else {
			// Big relation probes through the current (smaller) result.
			cur = cur.hashJoin(next, sel, rel+"_id")
		}
	}
	cur.agg(1, "min_cols")
	return t.done()
}
