package query

import (
	"fmt"

	"oodb/internal/model"
)

// Accumulator folds one aggregate function over a stream of values. It is
// the only implementation of COUNT/SUM/AVG/MIN/MAX: a heap scan feeds one
// per scope class and merges them in scope order, an index probe feeds one
// from its rows, and the shard router merges one Partial per member.
//
// Nulls are skipped, a set contributes each of its members, SUM and AVG
// require numbers. Integers add exactly in int64; the first float input,
// or an int64 overflow, moves the sum to float64 for good, and SUM then
// reports a Float. Float addition does not associate: the sum a caller
// gets is the one its Add and Merge order produces.
type Accumulator struct {
	fn    AggFunc
	count int64       // non-null inputs
	isum  int64       // the sum while it is exact
	fsum  float64     // the sum once it is not
	float bool        // fsum holds the sum
	best  model.Value // MIN / MAX so far
}

// NewAccumulator returns an empty accumulator for f.
func NewAccumulator(f AggFunc) Accumulator { return Accumulator{fn: f} }

// Partial rebuilds the accumulator behind a finished aggregation from what
// it reported — how a router folds its members' answers. v is the reported
// value; an AVG travels as its SUM in v and its COUNT in count (Null for
// the other functions).
func Partial(f AggFunc, v, count model.Value) (Accumulator, error) {
	a := NewAccumulator(f)
	if f == AggCount {
		v, count = model.Null, v
	}
	err := a.add(&v, 1) // one reported value, not a set to spread
	a.count, _ = count.AsInt()
	return a, err
}

// Add folds one value in. v is only read.
func (a *Accumulator) Add(v *model.Value) error { return a.addN(v, 1) }

// addN folds in n copies of v (n >= 1) — how an index fold adds the n
// instances one key stands for. An integer sum stays exact exactly as n
// calls of Add would keep it; a float's n copies are added as one product,
// which rounds once where n additions round n times.
func (a *Accumulator) addN(v *model.Value, n int64) error {
	if members, ok := v.AsSet(); ok {
		for i := range members {
			if err := a.add(&members[i], n); err != nil {
				return err
			}
		}
		return nil
	}
	return a.add(v, n)
}

// addRun folds in n integers whose sum is sum and whose least and greatest
// are least and greatest (null when no MIN or MAX reads them) — how a
// covered aggregate adds the postings its index summaries count. The caller
// makes sure that Σ|v| < 2^63, so that every order of adding the integers
// keeps the sum exact.
func (a *Accumulator) addRun(n, sum int64, least, greatest model.Value) {
	a.count += n
	a.addInt(sum)
	a.keepBest(least)
	a.keepBest(greatest)
}

func (a *Accumulator) add(v *model.Value, n int64) error {
	if v.IsNull() {
		return nil
	}
	a.count += n
	switch a.fn {
	case AggSum, AggAvg:
		if i, ok := v.AsInt(); ok {
			if p := i * n; n == 1 || p/n == i {
				a.addInt(p)
			} else {
				a.fsum, a.float = a.sum()+float64(i)*float64(n), true
			}
		} else if f, ok := v.AsFloat(); ok {
			a.fsum, a.float = a.sum()+f*float64(n), true
		} else {
			return fmt.Errorf("query: %s over non-numeric value %s", a.fn, v)
		}
	case AggMin, AggMax:
		a.keepBest(*v)
	}
	return nil
}

// addInt adds exactly while the sum is an int64 that does not overflow.
func (a *Accumulator) addInt(i int64) {
	if !a.float {
		if s := a.isum + i; (s > a.isum) == (i > 0) {
			a.isum = s
			return
		}
	}
	a.fsum, a.float = a.sum()+float64(i), true
}

func (a *Accumulator) sum() float64 {
	if a.float {
		return a.fsum
	}
	return float64(a.isum)
}

func (a *Accumulator) keepBest(v model.Value) {
	if v.IsNull() {
		return
	}
	if c := model.Compare(v, a.best); a.best.IsNull() || (a.fn == AggMin && c < 0) || (a.fn == AggMax && c > 0) {
		a.best = v
	}
}

// Merge folds in a partial of the same function, as if b's inputs had been
// added after a's.
func (a *Accumulator) Merge(b Accumulator) {
	a.count += b.count
	if b.float {
		a.fsum, a.float = a.sum()+b.fsum, true
	} else {
		a.addInt(b.isum)
	}
	a.keepBest(b.best)
}

// Result is the aggregate over everything added and merged: COUNT and an
// all-integer SUM are Int (SUM of nothing is 0), AVG is Float or Null over
// no input, MIN and MAX are the winning value or Null.
func (a *Accumulator) Result() model.Value {
	switch a.fn {
	case AggCount:
		return model.Int(a.count)
	case AggSum:
		if a.float {
			return model.Float(a.fsum)
		}
		return model.Int(a.isum)
	case AggAvg:
		if a.count == 0 {
			return model.Null
		}
		return model.Float(a.sum() / float64(a.count))
	default:
		return a.best
	}
}
