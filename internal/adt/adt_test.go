package adt

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/types"
	"repro/internal/value"
)

func TestBuiltinsPresent(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	if len(names) != 2 || names[0] != "Complex" || names[1] != "Date" {
		t.Fatalf("builtins: %v", names)
	}
	c, ok := r.Lookup("Date")
	if !ok {
		t.Fatal("Date missing")
	}
	fns := c.FuncNames()
	want := []string{"add_days", "date", "day", "diff_days", "month", "year"}
	if strings.Join(fns, ",") != strings.Join(want, ",") {
		t.Errorf("Date functions: %v", fns)
	}
}

func TestDefineAndOverload(t *testing.T) {
	r := NewRegistry()
	c, err := r.Define("Point")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Define("Point"); err == nil {
		t.Error("duplicate ADT accepted")
	}
	mk := func(params ...types.Type) *Func {
		return &Func{Name: "dist", Params: params, Result: types.Float8,
			Impl: func([]value.Value) (value.Value, error) { return value.NewFloat(0), nil }}
	}
	if err := r.RegisterFunc("Point", mk(c.Type, c.Type)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFunc("Point", mk(c.Type)); err != nil {
		t.Fatal(err) // different arity: fine
	}
	if err := r.RegisterFunc("Point", mk(c.Type, c.Type)); err == nil {
		t.Error("identical signature accepted twice")
	}
	if err := r.RegisterFunc("NoSuch", mk(c.Type)); err == nil {
		t.Error("function on unknown ADT accepted")
	}
}

// TestRegistryReadsDuringRegistration: readers resolve functions and
// operators with no lock while another goroutine registers; each read
// sees a whole version of the tables (run with -race).
func TestRegistryReadsDuringRegistration(t *testing.T) {
	r := NewRegistry()
	date, _ := r.Lookup("Date")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			f := &Func{Name: fmt.Sprintf("f%d", i), Params: []types.Type{date.Type}, Result: types.Int4}
			if err := r.RegisterFunc("Date", f); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := r.ResolveFunc("Date", "year", []types.Type{date.Type}); err != nil {
					t.Error(err)
					return
				}
				if _, _, _, ok := r.OperatorInfo("+"); !ok {
					t.Error("operator + vanished")
					return
				}
				_, _ = r.ResolveAnyFunc("f0", []types.Type{date.Type})
			}
		}()
	}
	wg.Wait()
	if c, _ := r.Lookup("Date"); len(c.FuncNames()) != 206 {
		t.Errorf("Date has %d functions after 200 registrations, want 206", len(c.FuncNames()))
	}
}

func TestOperatorRegistrationRules(t *testing.T) {
	r := NewRegistry()
	c, _ := r.Define("Vec")
	unary := &Func{Name: "neg", Params: []types.Type{c.Type}, Result: c.Type,
		Impl: func(a []value.Value) (value.Value, error) { return a[0], nil }}
	binary := &Func{Name: "plus", Params: []types.Type{c.Type, c.Type}, Result: c.Type,
		Impl: func(a []value.Value) (value.Value, error) { return a[0], nil }}
	ternary := &Func{Name: "fma", Params: []types.Type{c.Type, c.Type, c.Type}, Result: c.Type,
		Impl: func(a []value.Value) (value.Value, error) { return a[0], nil }}
	for _, f := range []*Func{unary, binary, ternary} {
		if err := r.RegisterFunc("Vec", f); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RegisterOperator("Vec", Operator{Symbol: "~", Prefix: true, Precedence: 7, Fn: unary}); err != nil {
		t.Errorf("prefix op: %v", err)
	}
	if err := r.RegisterOperator("Vec", Operator{Symbol: "<+>", Precedence: 5, Fn: binary}); err != nil {
		t.Errorf("infix op: %v", err)
	}
	// Three or more arguments cannot be operators (paper rule).
	if err := r.RegisterOperator("Vec", Operator{Symbol: "@@", Precedence: 5, Fn: ternary}); err == nil {
		t.Error("ternary operator accepted")
	}
	// Precedence must be in range.
	if err := r.RegisterOperator("Vec", Operator{Symbol: "!!", Precedence: 9, Fn: binary}); err == nil {
		t.Error("precedence 9 accepted")
	}
	// Overloaded-within-dbclass functions cannot be operators.
	over1 := &Func{Name: "amb", Params: []types.Type{c.Type}, Result: c.Type,
		Impl: func(a []value.Value) (value.Value, error) { return a[0], nil }}
	over2 := &Func{Name: "amb", Params: []types.Type{c.Type, c.Type}, Result: c.Type,
		Impl: func(a []value.Value) (value.Value, error) { return a[0], nil }}
	r.RegisterFunc("Vec", over1)
	r.RegisterFunc("Vec", over2)
	if err := r.RegisterOperator("Vec", Operator{Symbol: "%%", Precedence: 5, Fn: over1}); err == nil {
		t.Error("overloaded function registered as operator")
	}
	// OperatorInfo reports parse-time properties.
	prec, right, prefix, ok := r.OperatorInfo("<+>")
	if !ok || prec != 5 || right || prefix {
		t.Errorf("OperatorInfo: %d %v %v %v", prec, right, prefix, ok)
	}
	if _, _, _, ok := r.OperatorInfo("@#$"); ok {
		t.Error("unknown operator reported")
	}
}

func TestResolveOverloads(t *testing.T) {
	r := NewRegistry()
	ct, _ := r.Type("Complex")
	// Exact match wins over widening.
	fn, err := r.ResolveOperator("+", []types.Type{ct, ct})
	if err != nil || fn.Name != "Add" {
		t.Fatalf("resolve +: %v %v", fn, err)
	}
	if _, err := r.ResolveOperator("+", []types.Type{ct, types.Int4}); err == nil {
		t.Error("mismatched operand accepted")
	}
	fn, err = r.ResolveAnyFunc("year", []types.Type{&types.ADT{Name: "Date"}})
	if err != nil || fn.Result != types.Int4 {
		t.Fatalf("ResolveAnyFunc year: %v", err)
	}
	if _, err := r.ResolveAnyFunc("nonesuch", nil); err == nil {
		t.Error("unknown function resolved")
	}
	if _, err := r.ResolveFunc("Date", "Magnitude", []types.Type{&types.ADT{Name: "Date"}}); err == nil {
		t.Error("cross-class member resolved")
	}
}

func TestDateSemantics(t *testing.T) {
	d1, err := NewDate(1987, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d1.String() != "12/07/1987" {
		t.Errorf("display: %s", d1)
	}
	if _, err := NewDate(1987, 2, 30); err == nil {
		t.Error("Feb 30 accepted")
	}
	if _, err := NewDate(1987, 13, 1); err == nil {
		t.Error("month 13 accepted")
	}
	if _, err := NewDate(2000, 2, 29); err != nil {
		t.Error("leap day rejected (2000 is a leap year)")
	}
	if _, err := NewDate(1900, 2, 29); err == nil {
		t.Error("1900-02-29 accepted (not a leap year)")
	}
	d2, _ := ParseDate("01/01/1988")
	c := d1.(value.ADTVal).Rep.(DateRep).CompareRep(d2.(value.ADTVal).Rep)
	if c >= 0 {
		t.Error("date ordering wrong")
	}
	if _, err := ParseDate("notadate"); err == nil {
		t.Error("bad literal accepted")
	}
}

func TestDateArithmetic(t *testing.T) {
	r := NewRegistry()
	d, _ := NewDate(1987, 12, 30)
	add, err := r.ResolveAnyFunc("add_days", []types.Type{&types.ADT{Name: "Date"}, types.Int4})
	if err != nil {
		t.Fatal(err)
	}
	out, err := add.Impl([]value.Value{d, value.NewInt(5)})
	if err != nil || out.String() != "01/04/1988" {
		t.Fatalf("add_days: %s %v", out, err)
	}
	// Negative day counts walk backwards across month boundaries.
	out, err = add.Impl([]value.Value{d, value.NewInt(-30)})
	if err != nil || out.String() != "11/30/1987" {
		t.Fatalf("add_days back: %s %v", out, err)
	}
	diff, _ := r.ResolveAnyFunc("diff_days", []types.Type{&types.ADT{Name: "Date"}, &types.ADT{Name: "Date"}})
	d2, _ := NewDate(1988, 1, 4)
	n, err := diff.Impl([]value.Value{d2, d})
	if err != nil || n.(value.Int).V != 5 {
		t.Fatalf("diff_days: %s %v", n, err)
	}
}

// Property: add_days(d, n) then add_days(result, -n) returns d.
func TestDateAddInverseProperty(t *testing.T) {
	r := NewRegistry()
	add, _ := r.ResolveAnyFunc("add_days", []types.Type{&types.ADT{Name: "Date"}, types.Int4})
	f := func(day uint16, n int16) bool {
		d, err := NewDate(2000, 1, 1)
		if err != nil {
			return false
		}
		fwd, err := add.Impl([]value.Value{d, value.NewInt(int64(n))})
		if err != nil {
			return false
		}
		back, err := add.Impl([]value.Value{fwd, value.NewInt(-int64(n))})
		if err != nil {
			return false
		}
		return value.Equal(d, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComplexSemantics(t *testing.T) {
	r := NewRegistry()
	a := NewComplex(1, 2)
	b := NewComplex(3, -1)
	ct, _ := r.Type("Complex")
	mul, err := r.ResolveFunc("Complex", "Multiply", []types.Type{ct, ct})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := mul.Impl([]value.Value{a, b})
	if out.String() != "5+5i" {
		t.Errorf("multiply: %s", out)
	}
	sub, _ := r.ResolveOperator("-", []types.Type{ct, ct})
	out, _ = sub.Impl([]value.Value{a, b})
	if out.String() != "-2+3i" {
		t.Errorf("subtract: %s", out)
	}
	mag, _ := r.ResolveFunc("Complex", "Magnitude", []types.Type{ct})
	out, _ = mag.Impl([]value.Value{NewComplex(3, 4)})
	if out.(value.Float).V != 5 {
		t.Errorf("magnitude: %s", out)
	}
	if !value.Equal(NewComplex(1, 2), NewComplex(1, 2)) {
		t.Error("complex equality")
	}
	if NewComplex(0, -1).String() != "0-1i" {
		t.Errorf("negative imaginary display: %s", NewComplex(0, -1))
	}
}

func TestSetFuncs(t *testing.T) {
	r := NewRegistry()
	sf := &SetFunc{
		Name:       "second",
		Constraint: func(e types.Type) bool { return e != nil && e.Kind().IsNumeric() },
		Result:     func(e types.Type) types.Type { return e },
		Impl: func(es []value.Value) (value.Value, error) {
			if len(es) < 2 {
				return value.Null{}, nil
			}
			return es[1], nil
		},
	}
	if err := r.RegisterSetFunc(sf); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterSetFunc(sf); err == nil {
		t.Error("duplicate set function accepted")
	}
	if !r.HasSetFunc("second") || r.HasSetFunc("third") {
		t.Error("HasSetFunc wrong")
	}
	if _, ok := r.SetFuncFor("second", types.Int4); !ok {
		t.Error("constraint rejected int4")
	}
	if _, ok := r.SetFuncFor("second", types.Varchar); ok {
		t.Error("constraint accepted varchar")
	}
}
