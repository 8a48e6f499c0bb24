package lint

import "testing"

// TestStoreTypesFindTheEngineStores: snapcheck finds the stores it
// checks by a method the store keeps (storeTypes). Loaded
// over the real module, the object store, the catalog and the grant
// table must all be found; a discovery rule keyed on something a store
// no longer has would pass every miniature fixture and check nothing.
// TestRealStoreViolations shows the analyzer reporting against the
// object store so found.
func TestStoreTypesFindTheEngineStores(t *testing.T) {
	res, err := Load(".", []string{"./fixtures/realstore"})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for n := range storeTypes(res.Prog) {
		found[n.Obj().Pkg().Path()+"."+n.Obj().Name()] = true
	}
	for _, want := range []string{"repro/internal/object.Store", "repro/internal/catalog.Catalog", "repro/internal/authz.Authorizer"} {
		if !found[want] {
			t.Errorf("storeTypes does not find %s (found %v)", want, found)
		}
	}
}
