package extra

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/codec"
)

// checkCanonical holds a database to the property that let the snapshot
// drop its second, encoded copy of every object: each record on a heap
// page is exactly what codec.Encode produces for the value it decodes
// to, so encoding a snapshot's frozen tuple at export time reproduces
// the page bytes, and a snapshot-backed dump is byte-identical to a live
// one. mustOpen runs it on every database a test leaves behind, so the
// corpus is the figure tests and everything else in this package.
func checkCanonical(t *testing.T, db *DB) {
	t.Helper()
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed.Load() {
		return
	}
	live, err := db.store.ExportObjects()
	if err != nil {
		t.Errorf("live export: %v", err)
		return
	}
	for _, o := range live {
		v, err := codec.DecodeOne(o.Data, db.store.Catalog())
		if err != nil {
			t.Errorf("object %s: %v", o.OID, err)
			continue
		}
		enc, err := codec.Encode(nil, v)
		if err != nil || !bytes.Equal(enc, o.Data) {
			t.Errorf("object %s: Encode(DecodeOne(b)) != b (err %v)\n b: %x\n got: %x", o.OID, err, o.Data, enc)
		}
	}
	snap, err := db.store.Snapshot().ExportObjects()
	if err != nil {
		t.Errorf("snapshot export: %v", err)
		return
	}
	if !reflect.DeepEqual(live, snap) {
		t.Errorf("snapshot export differs from live export (%d vs %d objects)", len(snap), len(live))
	}
}
