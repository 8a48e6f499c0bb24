package main

import (
	"testing"

	extra "repro"
)

func TestCompleteStatement(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`retrieve (E.name)`, true},
		{`retrieve (E.name`, false},
		{`define type P: ( a: int4`, false},
		{`define type P: ( a: int4 )`, true},
		{`append to X (s = "unterminated`, false},
		{`append to X (s = "ok)")`, true},
		{`retrieve (x = {1, 2})`, true},
		{`retrieve (x = {1, 2)`, false}, // unbalanced mix still counts depth
		{`append (s = "quote \" inside")`, true},
	}
	for _, c := range cases {
		if got := completeStatement(c.src); got != c.want {
			t.Errorf("completeStatement(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestMetaCommands(t *testing.T) {
	db := openTestDB(t)
	sess := db.NewSession()
	// All meta commands run without touching stdin; \quit returns false.
	for _, cmd := range []string{
		`\help`, `\types`, `\type Person`, `\type NoSuch`, `\vars`, `\adts`,
		`\stats`, `\stats json`, `\explain retrieve (1)`,
		`\analyze retrieve (P.name) from P in People`,
		`\analyze json retrieve (P.name) from P in People`,
		`\analyze`, `\slow`, `\user`,
		`\explain`, `\type`, `\bogus`,
		`\prepare byname retrieve (P.name) from P in People where P.name = $1`,
		`\prepared`, `\exec byname "Ann"`, `\exec byname`, `\exec nosuch`,
		`\deallocate byname`, `\deallocate byname`, `\prepare`, `\exec`, `\deallocate`,
	} {
		if !meta(db, sess, cmd) {
			t.Errorf("meta(%q) requested exit", cmd)
		}
	}
	if meta(db, sess, `\quit`) || meta(db, sess, `\q`) {
		t.Error("\\quit did not request exit")
	}
}

func TestShellArgs(t *testing.T) {
	got, err := shellArgs(`42 3.5 "two words" true bare "esc \" q"`)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{42, 3.5, "two words", true, "bare", `esc " q`}
	if len(got) != len(want) {
		t.Fatalf("shellArgs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arg %d = %#v, want %#v", i, got[i], want[i])
		}
	}
	if _, err := shellArgs(`"unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
}

func openTestDB(t *testing.T) *extra.DB {
	t.Helper()
	db, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.MustExec(`define type Person: ( name: varchar ) create People : { own Person }`)
	return db
}
