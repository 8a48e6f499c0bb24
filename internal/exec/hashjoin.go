package exec

import (
	"encoding/binary"
	"strings"

	"repro/internal/algebra"
	"repro/internal/codec"
	"repro/internal/excess/sema"
	"repro/internal/trace"
	"repro/internal/value"
)

// joinEntry is one build-side row of a join table: the bound value plus
// its provenance, exactly what enumerate would have emitted.
type joinEntry struct {
	val value.Value
	pr  prov
}

// joinTable is the materialized build side of a hash-join node. Rows are
// grouped by encoded join key; rows whose key cannot be encoded go to
// overflow and are probed on every outer binding (the retained conjunct
// re-checks them, so over-matching is safe and under-matching is the only
// hazard). For identity joins, rows with no identity (value-set elements)
// collect in nulls: `x is y` holds when both sides are null, so a
// null-identity probe pairs with exactly those rows.
type joinTable struct {
	groups   map[string][]joinEntry
	overflow []joinEntry
	nulls    []joinEntry

	buildRows, probes, hits int64
}

// Join-key outcomes.
const (
	keyOK         = iota // key encodes; probe its group (plus overflow)
	keyNull              // null key: no equality match / identity-null match
	keyUnhashable        // value has no stable encoding; compare exhaustively
)

// joinKey maps a join-key value to its hash-table key. The encoding must
// never separate two values the retained conjunct would accept (false
// negatives lose rows); false positives are filtered by the re-check.
//   - identity joins key on the live OID; dangling refs and non-objects
//     have a null identity;
//   - equality joins reuse the index key encoding, which already unifies
//     int/float through the float transform; strings are trimmed of
//     trailing blanks because char[n] comparison ignores them and the
//     stored padding is invisible to value.Equal;
//   - everything else (tuples, collections, exotic ADTs) is unhashable.
func (ex *State) joinKey(h *algebra.HashJoinPath, v value.Value) (string, int) {
	if h.Ident {
		id, ok := ex.liveOID(v)
		if !ok {
			return "", keyNull
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(id))
		return string(b[:]), keyOK
	}
	v = deobject(v)
	if value.IsNull(v) {
		return "", keyNull
	}
	if s, ok := v.(value.Str); ok {
		return "s" + strings.TrimRight(s.V, " "), keyOK
	}
	if k, ok := codec.EncodeKey(v); ok {
		return "k" + string(k), keyOK
	}
	return "", keyUnhashable
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
	t := &joinTable{groups: make(map[string][]joinEntry)}
	b := newBinding()
	defer b.release()
	ctx := &evalCtx{b: b}
	s := sink{emit: func(v value.Value, pr prov) error {
		b.bind(n.Var, v, pr)
		defer b.unbind(n.Var)
		if ok, err := ex.pass(ctx, np.local); err != nil || !ok {
			return err
		}
		kv, err := np.build(ex, ctx)
		if err != nil {
			return err
		}
		e := joinEntry{val: v, pr: pr}
		switch key, st := ex.joinKey(n.Hash, kv); st {
		case keyOK:
			t.groups[key] = append(t.groups[key], e)
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
	if ex.cHashBuilds != nil {
		ex.cHashBuilds.Inc()
		ex.cHashBuildRows.Add(uint64(t.buildRows))
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
	if ex.cHashProbes != nil {
		ex.cHashProbes.Inc()
	}
	kv, err := np.probe(ex, &r.ctx)
	if err != nil {
		return err
	}
	send := func(entries []joinEntry) error {
		for _, e := range entries {
			t.hits++
			if ex.cHashHits != nil {
				ex.cHashHits.Inc()
			}
			if err := nr.emit(e.val, e.pr); err != nil {
				return err
			}
		}
		return nil
	}
	switch key, st := ex.joinKey(n.Hash, kv); st {
	case keyOK:
		if err := send(t.groups[key]); err != nil {
			return err
		}
		return send(t.overflow)
	case keyUnhashable:
		// No encoding for the probe value: compare against everything and
		// let the retained conjunct decide.
		for _, g := range t.groups {
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
