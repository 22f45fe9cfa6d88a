package query

import (
	"errors"
	"fmt"
	"testing"

	"oodb/internal/model"
)

// TestOrderLimit pins the one ORDER BY + LIMIT the executor, the federation
// and the shard router share.
func TestOrderLimit(t *testing.T) {
	type rec struct {
		id  string
		key model.Value
	}
	in := []rec{
		{"a", model.Int(2)}, {"b", model.Null}, {"c", model.Int(1)},
		{"d", model.Int(2)}, {"e", model.Float(1)}, {"f", model.Null},
	}
	key := func(r *rec) (model.Value, error) { return r.key, nil }
	cases := []struct {
		name    string
		ordered bool
		desc    bool
		limit   int
		want    string
	}{
		// Null sorts first; equal keys (1 and 1.0, the 2s, the nulls) keep
		// arrival order, ascending and descending alike.
		{"asc", true, false, 0, "bfcead"},
		{"desc", true, true, 0, "adcebf"},
		{"limit inside a tie", true, false, 3, "bfc"},
		{"desc limit 1", true, true, 1, "a"},
		{"limit past the end", true, false, 99, "bfcead"},
		{"no key: cut only", false, false, 2, "ab"},
		{"no key, no limit", false, true, 0, "abcdef"},
	}
	for _, c := range cases {
		rows := append([]rec(nil), in...)
		k := key
		if !c.ordered {
			k = nil
		}
		out, err := OrderLimit(rows, k, c.desc, c.limit)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := ""
		for _, r := range out {
			got += r.id
		}
		if got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}

	calls := 0
	boom := errors.New("boom")
	_, err := OrderLimit(append([]rec(nil), in...), func(r *rec) (model.Value, error) {
		if calls++; calls == 3 {
			return model.Null, fmt.Errorf("row %s: %w", r.id, boom)
		}
		return r.key, nil
	}, false, 1)
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("key error: err = %v after %d calls", err, calls)
	}
	if out, err := OrderLimit([]rec(nil), key, false, 1); err != nil || len(out) != 0 {
		t.Fatalf("empty input: %v, %v", out, err)
	}
}
