package extra

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"

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

// TestLoadPinsNoDumpLine: a loaded object's extent name is the catalog's
// copy of the variable name, not a field of the dump line it came from.
// The store keeps that name with every object for as long as it lives,
// and a field of the line is a substring sharing the line's bytes, so
// keeping it would keep every hex line a Load read.
func TestLoadPinsNoDumpLine(t *testing.T) {
	src := mustOpen(t)
	loadCompany(t, src)
	var dump strings.Builder
	if err := src.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	db := mustOpen(t)
	if err := db.Load(strings.NewReader(dump.String())); err != nil {
		t.Fatal(err)
	}
	objs, err := db.store.Snapshot().ExportObjects()
	if err != nil {
		t.Fatal(err)
	}
	cat, checked := db.Catalog(), 0
	for _, o := range objs {
		if o.Extent == "" {
			continue
		}
		v, ok := cat.Var(o.Extent)
		if !ok {
			t.Fatalf("object %s: no variable %s", o.OID, o.Extent)
		}
		if unsafe.StringData(o.Extent) != unsafe.StringData(v.Name) {
			t.Errorf("object %s: its extent name %q is not the catalog's", o.OID, o.Extent)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("setup: no extent object loaded")
	}
}
