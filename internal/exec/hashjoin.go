package exec

import (
	"strings"

	"repro/internal/algebra"
	"repro/internal/codec"
	"repro/internal/excess/sema"
	"repro/internal/oid"
	"repro/internal/trace"
	"repro/internal/types"
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
// rows whose key has no (exact) comparable form go to overflow and are
// probed on every outer binding (the retained conjunct re-checks them,
// so over-matching is safe and under-matching is the only hazard). For
// identity joins, rows with no identity (value-set elements) collect in
// nulls: `x is y` holds when both sides are null, so a null-identity
// probe pairs with exactly those rows.
type joinTable struct {
	words    map[uint64][]joinEntry
	strs     map[string][]joinEntry
	overflow []joinEntry
	nulls    []joinEntry

	buildRows, probes, hits, memoHits int64
}

// Join-key outcomes.
const (
	keyWord       = iota // the key is a word; probe its group (plus overflow)
	keyStr               // the key is a string; probe its group (plus overflow)
	keyNull              // null key: no equality match / identity-null match
	keyUnhashable        // no (exact) key; compare exhaustively
)

// keyMode is what a hash node's table keys decide, chosen from the key
// expressions' static types. Under keyCoarse two values may share a key
// when the join conjunct fails, so every match is re-checked; under the
// others they share one exactly when it holds, so a match skips it, and
// a value that breaks the mode's assumption (a string of another kind,
// an integer past 2^53, where KeyWord's float64 loses digits) is keyed
// as unhashable.
type keyMode uint8

const (
	keyCoarse  keyMode = iota
	keyIdent           // is: live identities, null with null
	keyInt             // int1, int2 or int4 on both sides
	keyVarchar         // varchar on both sides: untrimmed, of kind varchar
	keyChar            // char[n] on a side (of kind char): trimmed, as = compares
)

// hashKeyMode chooses a hash node's key mode from its key expressions'
// static types, with the string kind each side's values must have.
func hashKeyMode(h *algebra.HashJoinPath) (keyMode, [2]types.Kind) {
	b, p := staticKind(h.Build), staticKind(h.Probe)
	switch {
	case h.Ident:
		return keyIdent, [2]types.Kind{}
	case intTyped(h.Build) && intTyped(h.Probe):
		return keyInt, [2]types.Kind{}
	case b == types.KVarchar && p == types.KVarchar:
		return keyVarchar, [2]types.Kind{types.KVarchar, types.KVarchar}
	case b == types.KChar && p.IsString():
		return keyChar, [2]types.Kind{types.KChar, types.KInvalid}
	case p == types.KChar && b.IsString():
		return keyChar, [2]types.Kind{types.KInvalid, types.KChar}
	}
	return keyCoarse, [2]types.Kind{}
}

// joinKey maps a join-key value to its hash-table key under mode, a word
// or a string, neither of which allocates; need is the string kind the
// value must have for its key to be exact (KInvalid: any).
//   - identity joins key on the live OID as a word; dangling refs and
//     non-objects have a null identity;
//   - numbers, enums and ordinal ADTs key on their encoded word, which
//     unifies int and float through the float transform; a bool on its
//     display form;
//   - strings are trimmed of trailing blanks, as char[n] comparison
//     ignores them, except under keyVarchar;
//   - everything else (tuples, collections, exotic ADTs) is unhashable.
func (ex *State) joinKey(mode keyMode, need types.Kind, v value.Value) (uint64, string, int) {
	if mode == keyIdent {
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
		if need != types.KInvalid && x.K != need {
			return 0, "", keyUnhashable
		} else if mode == keyVarchar {
			return 0, x.V, keyStr
		}
		return 0, strings.TrimRight(x.V, " "), keyStr
	case value.Bool:
		return 0, x.String(), keyStr
	default:
		if i, ok := x.(value.Int); mode == keyInt && (!ok || i.V > 1<<53 || i.V < -1<<53) {
			return 0, "", keyUnhashable
		}
		if w, ok := codec.KeyWord(x); ok {
			return w, "", keyWord
		}
	}
	return 0, "", keyUnhashable
}

// refMemo is the reference memo: a direct-mapped table of what a key
// V.r.a (refHop) found for the object r refers to, a hash probe's build
// rows or a by key's group grp under the group at, valid only for the
// user that drew its generation (State.memoGen): one hash node or by key
// of one run. Consecutive OIDs never collide in it.
type refMemo [256]memoEntry

// memoEntry is one slot of the reference memo.
type memoEntry struct {
	gen     uint64
	id      oid.OID
	rows    []joinEntry
	at, grp *groupNode
}

// memoSlot is id's slot for generation gen, allocated on first use: the
// low bits of id, offset by half the table per generation so that two
// users of a run meeting the same targets do not evict each other.
func (ex *State) memoSlot(id oid.OID, gen uint64) *memoEntry {
	if ex.memo == nil {
		ex.memo = new(refMemo)
	}
	return &ex.memo[(uint64(id)+gen*uint64(len(ex.memo)/2))%uint64(len(ex.memo))]
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
		if ok, err := ex.pass(ctx, np.filter[:np.local]); err != nil || !ok {
			return err
		}
		kv, err := np.build(ex, ctx)
		if err != nil {
			return err
		}
		e := joinEntry{val: v, s: vs}
		switch w, str, st := ex.joinKey(np.mode, np.need[0], kv); st {
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

// hashProbe enumerates hash-join node i for one outer binding: finds the
// probe key's build rows and emits them, skipping the conjuncts they
// satisfy (nodeProgram). A probe key of shape V.r.a reads its rows from
// the reference memo when the run met the same target before. The table
// is built on the run's first probe and serves every later one: a table
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
	send := func(rows []joinEntry, tested int) error {
		for _, e := range rows {
			t.hits++
			if err := nr.emit(e.val, e.s, tested); err != nil {
				return err
			}
		}
		return nil
	}
	// A key's group skips the decided conjuncts; overflow rows do not.
	group := func(rows []joinEntry) error {
		if err := send(rows, np.decided); err != nil {
			return err
		}
		return send(t.overflow, np.local)
	}
	var kv value.Value
	var err error
	id, memo := np.hop.target(&r.ctx)
	if memo {
		if m := ex.memoSlot(id, nr.gen); m.gen == nr.gen && m.id == id {
			t.memoHits++
			return group(m.rows)
		}
		kv, err = np.hop.read(ex, id)
	} else {
		kv, err = np.probe(ex, &r.ctx)
	}
	if err != nil {
		return err
	}
	switch w, str, st := ex.joinKey(np.mode, np.need[1], kv); st {
	case keyWord, keyStr:
		rows := t.words[w]
		if st == keyStr {
			rows = t.strs[str]
		}
		if memo {
			*ex.memoSlot(id, nr.gen) = memoEntry{gen: nr.gen, id: id, rows: rows}
		}
		return group(rows)
	case keyUnhashable:
		// No (exact) key for the probe value: compare against everything
		// and let the retained conjunct decide.
		for _, g := range t.words {
			if err := send(g, np.local); err != nil {
				return err
			}
		}
		for _, g := range t.strs {
			if err := send(g, np.local); err != nil {
				return err
			}
		}
		return send(t.overflow, np.local)
	default: // keyNull
		if n.Hash.Ident {
			return send(t.nulls, np.decided) // null is null holds
		}
		return nil // null = anything is unknown; the filter would reject
	}
}
