package core_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oodb"
	"oodb/internal/core"
	"oodb/internal/model"
)

// TestFetchBesideRewrite reads parts while a transaction rewrites them.
// Tx.Rewrite, Recluster's clustering primitive, deletes each record and
// puts it back at the heap tail, so between the two the heap has no record
// of a part that exists throughout. DB.Fetch, and Session.Fetch outside a
// transaction (the same read), must find the part on every read: a heap
// miss reads again under a registered snapshot, where the rewrite's
// version chain still holds it.
func TestFetchBesideRewrite(t *testing.T) {
	db, err := oodb.Open(t.TempDir(), oodb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.DefineClass("Part", nil, oodb.Attr{Name: "w", Domain: "Integer"}); err != nil {
		t.Fatal(err)
	}
	parts := make([]model.OID, 50)
	err = db.Do(func(tx *core.Tx) (err error) {
		for i := range parts {
			if parts[i], err = tx.Insert("Part", oodb.Attrs{"w": model.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	eng, sess := db.Engine(), db.Session(nil, "reader")
	readers := map[string]func(i int) (model.Value, error){
		"DB.Fetch": func(i int) (model.Value, error) {
			obj, err := eng.Fetch(parts[i])
			if err != nil {
				return model.Null, err
			}
			return eng.AttrValue(obj, "w")
		},
		"Session.Fetch": func(i int) (model.Value, error) {
			obj, err := sess.Fetch(parts[i])
			if err != nil {
				return model.Null, err
			}
			return obj.Attrs["w"], nil
		},
	}
	stop := make(chan struct{})
	var reads, misses atomic.Int64
	var wg sync.WaitGroup
	for name, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i = (i + 1) % len(parts) {
				select {
				case <-stop:
					return
				default:
				}
				v, err := read(i)
				reads.Add(1)
				switch {
				case errors.Is(err, core.ErrNoObject):
					misses.Add(1)
				case err != nil:
					t.Errorf("%s of part %d: %v", name, i, err)
					return
				case !model.Equal(v, model.Int(int64(i))):
					t.Errorf("%s of part %d: w = %v", name, i, v)
					return
				}
			}
		}()
	}
	rewrites := 0
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); rewrites++ {
		err := eng.Do(func(tx *core.Tx) error {
			for _, oid := range parts {
				if err := tx.Rewrite(oid); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if n := misses.Load(); n > 0 {
		t.Fatalf("%d of %d reads beside %d rewrites of %d parts did not find the part", n, reads.Load(), rewrites, len(parts))
	}
	t.Logf("%d reads beside %d rewrites of %d parts", reads.Load(), rewrites, len(parts))
}
