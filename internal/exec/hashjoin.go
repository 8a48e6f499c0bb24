package exec

import (
	"strings"

	"repro/internal/algebra"
	"repro/internal/codec"
	"repro/internal/excess/sema"
	"repro/internal/trace"
	"repro/internal/value"
)

// joinEntry is one build-side row of a join table: the bound value plus
// its slot, exactly what enumerate would have emitted.
type joinEntry struct {
	val value.Value
	s   slot
}

// joinTable is the materialized build side of a hash-join node. Rows are
// grouped by join key, a word key in words and a string key in strs;
// rows whose key has no comparable form go to overflow and are probed
// on every outer binding (the retained conjunct re-checks them, so
// over-matching is safe and under-matching is the only hazard). For
// identity joins, rows with no identity (value-set elements) collect in
// nulls: `x is y` holds when both sides are null, so a null-identity
// probe pairs with exactly those rows.
type joinTable struct {
	words    map[uint64][]joinEntry
	strs     map[string][]joinEntry
	overflow []joinEntry
	nulls    []joinEntry

	buildRows, probes, hits int64
}

// Join-key outcomes.
const (
	keyWord       = iota // the key is a word; probe its group (plus overflow)
	keyStr               // the key is a string; probe its group (plus overflow)
	keyNull              // null key: no equality match / identity-null match
	keyUnhashable        // value has no comparable form; compare exhaustively
)

// joinKey maps a join-key value to its hash-table key, a word or a
// string, neither of which allocates. Two values share a key exactly
// when their index key encodings (codec.EncodeKey) agree, char values
// trimmed; the key must never separate two values the retained conjunct
// would accept (false negatives lose rows), and false positives are
// filtered by the re-check, so a bool keying beside strings on its
// display form is safe.
//   - identity joins key on the live OID as a word; dangling refs and
//     non-objects have a null identity;
//   - numbers, enums and ordinal ADTs key on their encoded word, which
//     unifies int and float through the float transform; a bool on its
//     display form;
//   - strings are trimmed of trailing blanks because char[n] comparison
//     ignores them and the stored padding is invisible to value.Equal;
//   - everything else (tuples, collections, exotic ADTs) is unhashable.
func (ex *State) joinKey(h *algebra.HashJoinPath, v value.Value) (uint64, string, int) {
	if h.Ident {
		id, ok := ex.liveOID(v)
		if !ok {
			return 0, "", keyNull
		}
		return uint64(id), "", keyWord
	}
	switch x := deobject(v).(type) {
	case nil, value.Null:
		return 0, "", keyNull
	case value.Str:
		return 0, strings.TrimRight(x.V, " "), keyStr
	case value.Bool:
		return 0, x.String(), keyStr
	default:
		if w, ok := codec.KeyWord(x); ok {
			return w, "", keyWord
		}
	}
	return 0, "", keyUnhashable
}

// mentionsOnlyVar reports whether every range variable in e is v — such
// filter conjuncts can be applied on the build side, before the table is
// materialized.
func mentionsOnlyVar(e sema.Expr, v *sema.Var) bool {
	only := true
	sema.WalkExpr(e, func(x sema.Expr) {
		if r, ok := x.(*sema.VarRef); ok && r.Var != v {
			only = false
		}
	})
	return only
}

// buildJoinTable materializes the build side of a hash-join node: one
// pass over the node's source (scan or index probe), applying the filter
// conjuncts local to the node's variable, keying each surviving row on
// the build expression.
func (ex *State) buildJoinTable(n *algebra.Node, np *nodeProgram, keys *algebra.KeyRange) (*joinTable, error) {
	// The build is a discrete materializing step (unlike the per-row
	// pipeline), so it earns a live operator span when sampled.
	sp := ex.tr.StartSpan(trace.KindOperator, "hash build "+n.Var.Extent+" binding "+n.Var.Name)
	defer ex.tr.EndSpan(sp)
	t := &joinTable{}
	b := newBinding()
	defer b.release()
	ctx := &evalCtx{b: b}
	s := sink{emit: func(v value.Value, vs slot, _ int) error {
		b.bind(n.Var, v, vs)
		defer b.unbind(n.Var)
		if ok, err := ex.pass(ctx, np.local); err != nil || !ok {
			return err
		}
		kv, err := np.build(ex, ctx)
		if err != nil {
			return err
		}
		e := joinEntry{val: v, s: vs}
		switch w, str, st := ex.joinKey(n.Hash, kv); st {
		case keyWord:
			if t.words == nil {
				t.words = make(map[uint64][]joinEntry)
			}
			t.words[w] = append(t.words[w], e)
		case keyStr:
			if t.strs == nil {
				t.strs = make(map[string][]joinEntry)
			}
			t.strs[str] = append(t.strs[str], e)
		case keyUnhashable:
			t.overflow = append(t.overflow, e)
		case keyNull:
			if n.Hash.Ident {
				t.nulls = append(t.nulls, e)
			}
			// An equality key of null matches nothing; drop the row.
		}
		t.buildRows++
		return nil
	}}
	if err := ex.enumerate(ctx, n.Var, n.Access, keys, &np.varProgram, &s); err != nil {
		return nil, err
	}
	ex.tr.AttrInt(sp, "build_rows", t.buildRows)
	return t, nil
}

// hashProbe enumerates hash-join node i for one outer binding: evaluates
// the probe key over the already-bound variables and emits the matching
// build rows. The node's full filter (including the join conjunct) is
// re-applied by the emit, so emitting a superset is safe. The table is
// built on the run's first probe and serves every later one: a table
// never outlives the run that built it (the store may change between
// statements).
func (r *runner) hashProbe(i int) error {
	ex, n, np, nr := r.ex, &r.plan.Nodes[i], &r.prog.nodes[i], &r.nodes[i]
	t := nr.table
	if t == nil {
		var err error
		if t, err = ex.buildJoinTable(n, np, nr.keys); err != nil {
			return err
		}
		nr.table = t
	}
	t.probes++
	kv, err := np.probe(ex, &r.ctx)
	if err != nil {
		return err
	}
	send := func(entries []joinEntry) error {
		for _, e := range entries {
			t.hits++
			if err := nr.emit(e.val, e.s, 0); err != nil {
				return err
			}
		}
		return nil
	}
	switch w, str, st := ex.joinKey(n.Hash, kv); st {
	case keyWord:
		if err := send(t.words[w]); err != nil {
			return err
		}
		return send(t.overflow)
	case keyStr:
		if err := send(t.strs[str]); err != nil {
			return err
		}
		return send(t.overflow)
	case keyUnhashable:
		// No encoding for the probe value: compare against everything and
		// let the retained conjunct decide.
		for _, g := range t.words {
			if err := send(g); err != nil {
				return err
			}
		}
		for _, g := range t.strs {
			if err := send(g); err != nil {
				return err
			}
		}
		return send(t.overflow)
	default: // keyNull
		if n.Hash.Ident {
			return send(t.nulls) // null is null holds
		}
		return nil // null = anything is unknown; the filter would reject
	}
}
