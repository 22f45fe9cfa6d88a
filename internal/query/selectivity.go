package query

import (
	"math"
	"slices"
	"sort"

	"oodb/internal/model"
	"oodb/internal/schema"
	"oodb/internal/stats"
)

// Selectivity estimation: the bridge between the maintenance subsystem's
// statistics (internal/stats, collected by internal/maint) and the
// planner's access-path choice. Kim §2.2 requires that the system, not the
// application, selects among access methods; statistics let that choice be
// quantitative — an index probe is only cheaper than a scan when the
// predicate is selective enough to amortize its random object fetches.
//
// Everything here is advisory and strictly additive: with no statistics
// (or statistics covering only part of the scope) the planner's heuristic
// ranking is byte-identical to what it was before this file existed.

const (
	// defaultRangeSelectivity is the textbook guess for a range predicate
	// whose bounds cannot be interpolated against the attribute's min/max.
	defaultRangeSelectivity = 1.0 / 3
	// probeCostFactor weighs an index-probed row against a scanned row: a
	// posting costs a random object fetch where a scan reads pages
	// sequentially, so a probe must be this many times more selective than
	// the full scan to win on cost.
	probeCostFactor = 4.0
)

// estimator is a per-plan view of the statistics registry. It exists only
// when every class in the plan scope has been analyzed: partial statistics
// would bias the comparison between covered and uncovered classes, so the
// planner falls back to its heuristic ranking instead.
type estimator struct {
	reg   *stats.Registry
	scope []model.ClassID
}

// newEstimator returns an estimator for the scope, or nil if any scope
// class lacks statistics.
func (e *Engine) newEstimator(scope []model.ClassID) *estimator {
	reg := e.db.Stats
	if reg == nil || slices.ContainsFunc(scope, func(c model.ClassID) bool { return reg.Get(c) == nil }) {
		return nil
	}
	return &estimator{reg: reg, scope: scope}
}

// totalCard is the estimated instance count over the whole scope.
func (est *estimator) totalCard() float64 {
	var n float64
	for _, c := range est.scope {
		n += float64(est.reg.Get(c).Cardinality)
	}
	return n
}

// classRows estimates how many instances of the k-th scope class satisfy
// every sarg, each on that class's own attribute. Sargs on different
// attributes combine multiplicatively (the usual independence assumption);
// the first sarg on an attribute speaks for all of them. Of an attribute's
// Count stored values, storedFraction match. The Cardinality − Count
// instances that store no value read the attribute's default: all of them
// match when the default satisfies every sarg on the attribute (for several
// bounds, when it lies in their interval), none otherwise — a null default
// satisfies no comparison.
func (est *estimator) classRows(k int, sargs []estSarg) float64 {
	cs := est.reg.Get(est.scope[k])
	card := float64(cs.Cardinality)
	rows := card
	for i, es := range sargs {
		if rows == 0 {
			break
		}
		attr := es.attr(k)
		on := func(o estSarg) bool { return o.attr(k) == attr }
		if slices.ContainsFunc(sargs[:i], on) {
			continue
		}
		var stored, count float64
		if as := cs.Attr(attr); as != nil && as.Count > 0 {
			count = float64(as.Count)
			stored = count * storedFraction(as, sargs[i:], k, attr)
		}
		def := es.b.Classes[k].Def
		if !slices.ContainsFunc(sargs[i:], func(o estSarg) bool { return on(o) && !compareOp(o.s.op, &def, &o.s.lit) }) {
			stored += card - count // the default satisfies every sarg on attr
		}
		rows *= stored / card
	}
	return rows
}

// storedFraction estimates what fraction of an attribute's stored values
// satisfy every sarg on it: 1/Distinct per equality, times the interval
// the range bounds delimit. Range bounds on one attribute are anything but
// independent, so the tightest lower and upper bound combine as
// fracLo + fracHi - 1: on a uniform attribute a 5 % interval estimates as
// 5 %, not as the product of two half-open halves.
func storedFraction(as *stats.AttrStats, sargs []estSarg, k int, attr model.AttrID) float64 {
	f, fracLo, fracHi, interpolated := 1.0, 1.0, 1.0, true
	for _, es := range sargs {
		switch {
		case es.attr(k) != attr:
		case es.s.op == OpEq:
			f /= math.Max(float64(as.Distinct), 1)
		case es.s.op == OpGt || es.s.op == OpGe:
			r, ok := rangeFraction(as, es.s)
			fracLo, interpolated = math.Min(fracLo, r), interpolated && ok
		default:
			r, ok := rangeFraction(as, es.s)
			fracHi, interpolated = math.Min(fracHi, r), interpolated && ok
		}
	}
	if interpolated {
		return f * math.Max(fracLo+fracHi-1, 0)
	}
	return f * fracLo * fracHi // default guesses do not locate an interval
}

// rangeFraction estimates what fraction of an attribute's observed values a
// range sarg admits, by linear interpolation against the observed min/max
// when both are numeric (ok), and the default guess otherwise.
func rangeFraction(as *stats.AttrStats, s sarg) (f float64, ok bool) {
	lo, okLo := as.Min.AsFloat()
	hi, okHi := as.Max.AsFloat()
	v, okV := s.lit.AsFloat()
	if !okLo || !okHi || !okV {
		return defaultRangeSelectivity, false
	}
	if hi <= lo {
		// Degenerate domain: one observed value — the comparison either
		// admits it or not.
		if compareOp(s.op, &as.Min, &s.lit) {
			return 1, true
		}
		return 0, true
	}
	switch s.op {
	case OpGt, OpGe:
		f = (hi - v) / (hi - lo)
	case OpLt, OpLe:
		f = (v - lo) / (hi - lo)
	default:
		return defaultRangeSelectivity, false
	}
	return math.Min(math.Max(f, 0), 1), true
}

// estSarg is a sarg with its path bound over the plan's scope: per scope
// class, in the scope's order, the attribute that class's statistics live
// under, and what its instances that store no value read.
type estSarg struct {
	s sarg
	b *schema.PathBinding
}

func (es *estSarg) attr(k int) model.AttrID { return es.b.Classes[k].Attrs[0] }

// estimable drops the sargs the statistics cannot cost: a multi-step
// path's terminal distribution belongs to another class's instances and
// says nothing per scope class.
func estimable(sargs []estSarg) []estSarg {
	return slices.DeleteFunc(slices.Clone(sargs), func(es estSarg) bool { return len(es.s.path.Steps) != 1 })
}

// predicateRows estimates the plan's result cardinality: the per-class
// estimates summed over the scope. Inestimable conjuncts contribute factor
// 1 (an overestimate, which is the safe direction for access-path choice).
func (est *estimator) predicateRows(sargs []estSarg) float64 {
	var total float64
	for k := range est.scope {
		total += est.classRows(k, sargs)
	}
	return total
}

// annotatePlan runs after access-path selection: it records the result
// cardinality estimate on the plan (rendered by EXPLAIN next to actual
// rows) and, for a heap scan that may exit early on LIMIT, reorders the
// scope so the classes expected to contribute the most matches are scanned
// first — the fan-out visits fewer classes before the limit fills.
func annotatePlan(p *Plan, est *estimator, sargs []estSarg) {
	p.EstRows = est.predicateRows(sargs)
	p.HasEst = true
	// Without LIMIT, or with an ORDER BY, every match is needed and the
	// scope's order is irrelevant to cost.
	if p.kind != accessScan || len(p.Scope) < 2 || len(sargs) == 0 || p.Query.Limit == 0 || p.Query.OrderBy != nil {
		return
	}
	perClass := make(map[model.ClassID]float64, len(p.Scope))
	for k, c := range p.Scope {
		perClass[c] = est.classRows(k, sargs)
	}
	sort.SliceStable(p.Scope, func(i, j int) bool {
		return perClass[p.Scope[i]] > perClass[p.Scope[j]]
	})
}
