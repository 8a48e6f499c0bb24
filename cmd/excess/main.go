// Command excess is an interactive shell for the EXTRA/EXCESS database:
// a QUEL-style read-eval-print loop over the extra package, with
// meta-commands for catalog introspection.
//
// Usage:
//
//	excess [-wal dir] [-walsync group|each|none] [-load snapshot.xd] [-slow 1ms] [-trace N] [-serve addr] [script.xs ...]
//
// With script arguments the files are executed in order and the shell
// exits; otherwise an interactive prompt reads statements from stdin.
// Statements may span lines; a line ending in ";" (or a complete single
// line) executes. Meta-commands:
//
//	\types          list schema types
//	\type NAME      show a type's definition
//	\vars           list database variables
//	\adts           list abstract data types
//	\stats [json]   engine metrics
//	\explain QUERY  show the optimizer's plan for a retrieve
//	\analyze [json] QUERY
//	                execute a retrieve and show per-operator actuals
//	\slow           list slow-query log entries (with session and trace
//	                attribution): the slow statements of the trace ring
//	\trace on|off|last|every N
//	                control statement-trace sampling; \trace last renders
//	                the most recent retained statement's span tree
//	\user [NAME]    show or switch the shell session's user
//	\checkpoint     write a checkpoint and truncate the write-ahead log
//	\wal            show write-ahead-log LSN watermarks
//	\prepare NAME STMT
//	                prepare a statement with $1..$n parameter slots
//	\exec NAME [ARG ...]
//	                execute a prepared statement (args: int, float,
//	                "quoted string", true/false, or bare word)
//	\prepared       list prepared statements
//	\deallocate NAME
//	                close a prepared statement
//	\quit
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	extra "repro"
	"repro/internal/trace"
)

func main() {
	walDir := flag.String("wal", "", "write-ahead-log directory (enables durability and crash recovery)")
	walSync := flag.String("walsync", "group", "WAL sync mode: group, each or none")
	load := flag.String("load", "", "replay a Dump snapshot before starting")
	slow := flag.Duration("slow", 0, "slow-query threshold: statements this slow are kept in the trace ring and listed by \\slow (0 = default 100ms)")
	traceN := flag.Int("trace", 0, "sample every Nth statement into the trace ring of 64, which it shares with the slow statements (0 = off)")
	serve := flag.String("serve", "", "serve the ops plane (/metrics, /statz, /traces, pprof) on this address")
	flag.Parse()

	var opts []extra.Option
	if *walDir != "" {
		mode, err := extra.ParseWALSyncMode(*walSync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "excess:", err)
			os.Exit(1)
		}
		opts = append(opts, extra.WithWAL(*walDir), extra.WithWALSync(mode))
	}
	if *slow > 0 {
		opts = append(opts, extra.WithSlowQueryLog(*slow))
	}
	opts = append(opts, extra.WithTracing(*traceN, 64))
	if *serve != "" {
		opts = append(opts, extra.WithDebugServer(*serve))
	}
	db, err := extra.Open(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "excess:", err)
		os.Exit(1)
	}
	defer db.Close()
	if *serve != "" {
		fmt.Fprintln(os.Stderr, "excess: ops plane on http://"+db.DebugAddr())
	}

	if *load != "" {
		if err := db.LoadFile(*load); err != nil {
			fmt.Fprintln(os.Stderr, "excess: load:", err)
			os.Exit(1)
		}
	}

	// The shell is one client of the database: it runs its statements
	// through its own session (user identity, range declarations), the
	// same handle a server would hand each connection.
	sess := db.NewSession()

	if flag.NArg() > 0 {
		for _, path := range flag.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "excess:", err)
				os.Exit(1)
			}
			if res, err := sess.Exec(string(src)); err != nil {
				fmt.Fprintf(os.Stderr, "excess: %s: %v\n", path, err)
				os.Exit(1)
			} else if res != nil {
				fmt.Print(res)
			}
		}
		return
	}

	fmt.Println("EXCESS interactive shell — EXTRA data model for EXODUS")
	fmt.Println(`Type statements (end with ";"), or \help.`)
	repl(db, sess, os.Stdin)
}

func repl(db *extra.DB, sess *extra.Session, in *os.File) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("excess> ")
		} else {
			fmt.Print("   ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !meta(db, sess, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") || completeStatement(buf.String()) {
			src := buf.String()
			buf.Reset()
			if res, err := sess.Exec(src); err != nil {
				fmt.Println("error:", err)
			} else if res != nil {
				fmt.Print(res)
			} else {
				fmt.Println("ok")
			}
		}
		prompt()
	}
}

// completeStatement applies a cheap heuristic: execute once parentheses
// and braces balance and the input does not end mid-clause.
func completeStatement(src string) bool {
	depth := 0
	inStr := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '(', '{', '[':
			depth++
		case ')', '}', ']':
			depth--
		}
	}
	return depth <= 0 && !inStr
}

// prepared holds the shell's named prepared statements (\prepare /
// \exec / \deallocate). The shell is single-threaded, so a plain map.
var prepared = map[string]*extra.Stmt{}

// shellArgs tokenizes \exec arguments: double-quoted strings (spaces
// allowed, \" escapes), integers, floats, true/false, or bare words
// passed through as strings.
func shellArgs(s string) ([]any, error) {
	var args []any
	for i := 0; i < len(s); {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			break
		}
		if s[i] == '"' {
			var b strings.Builder
			j := i + 1
			for ; j < len(s) && s[j] != '"'; j++ {
				if s[j] == '\\' && j+1 < len(s) {
					j++
				}
				b.WriteByte(s[j])
			}
			if j >= len(s) {
				return nil, fmt.Errorf("unterminated string in arguments")
			}
			args = append(args, b.String())
			i = j + 1
			continue
		}
		j := i
		for j < len(s) && s[j] != ' ' && s[j] != '\t' {
			j++
		}
		tok := s[i:j]
		i = j
		switch {
		case tok == "true":
			args = append(args, true)
		case tok == "false":
			args = append(args, false)
		default:
			if n, err := strconv.Atoi(tok); err == nil {
				args = append(args, n)
			} else if f, err := strconv.ParseFloat(tok, 64); err == nil {
				args = append(args, f)
			} else {
				args = append(args, tok)
			}
		}
	}
	return args, nil
}

// meta handles backslash commands; it reports false on \quit.
func meta(db *extra.DB, sess *extra.Session, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\quit`, `\q`:
		return false
	case `\help`, `\h`:
		fmt.Println(`\types \type NAME \vars \adts \stats [json] \explain QUERY \analyze [json] QUERY \slow \trace on|off|last|every N \user [NAME] \checkpoint \wal \prepare NAME STMT \exec NAME [ARG ...] \prepared \deallocate NAME \quit`)
	case `\types`:
		for _, n := range db.Catalog().TupleTypeNames() {
			fmt.Println(" ", n)
		}
	case `\type`:
		if len(fields) < 2 {
			fmt.Println("usage: \\type NAME")
			break
		}
		if tt, ok := db.Catalog().TupleType(fields[1]); ok {
			fmt.Println(tt.DDL())
		} else {
			fmt.Println("no such type")
		}
	case `\vars`:
		for _, n := range db.Catalog().VarNames() {
			if v, ok := db.Catalog().Var(n); ok {
				fmt.Printf("  %s : %s\n", n, v.Comp.Type)
			}
		}
	case `\adts`:
		for _, n := range db.Registry().Names() {
			c, _ := db.Registry().Lookup(n)
			fmt.Printf("  %s (%s)\n", n, strings.Join(c.FuncNames(), ", "))
		}
	case `\explain`:
		q := strings.TrimSpace(strings.TrimPrefix(cmd, `\explain`))
		if q == "" {
			fmt.Println("usage: \\explain retrieve (...)")
			break
		}
		out, err := db.Explain(q)
		if err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Print(out)
		}
	case `\analyze`:
		q := strings.TrimSpace(strings.TrimPrefix(cmd, `\analyze`))
		asJSON := false
		if rest, ok := strings.CutPrefix(q, "json "); ok {
			asJSON, q = true, strings.TrimSpace(rest)
		}
		if q == "" {
			fmt.Println("usage: \\analyze [json] retrieve (...)")
			break
		}
		var out string
		var err error
		if asJSON {
			out, err = db.ExplainAnalyzeJSON(q)
		} else {
			out, err = db.ExplainAnalyze(q)
		}
		if err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println(strings.TrimRight(out, "\n"))
		}
	case `\stats`:
		if len(fields) == 2 && fields[1] == "json" {
			raw, err := json.MarshalIndent(db.MetricsSnapshot(), "", "  ")
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println(string(raw))
			}
			break
		}
		if err := db.MetricsSnapshot().WriteText(os.Stdout); err != nil {
			fmt.Println("error:", err)
		}
	case `\slow`:
		entries := db.SlowQueries()
		if len(entries) == 0 {
			fmt.Println("  slow-query log is empty")
			break
		}
		for _, e := range entries {
			fmt.Printf("  [session %d] %s  total=%v rows=%d (parse=%v check=%v plan=%v execute=%v) trace=%d\n",
				e.Session, strings.Join(strings.Fields(e.Src), " "), e.Total, e.Rows,
				e.Parse, e.Check, e.Plan, e.Execute, e.TraceID)
		}
	case `\trace`:
		if len(fields) < 2 {
			fmt.Printf("  sampling every=%d, %d traces retained; usage: \\trace on|off|last|every N\n",
				db.Tracer().Every(), len(db.Traces()))
			break
		}
		switch fields[1] {
		case "on":
			db.SetTraceSampling(1)
			fmt.Println("  tracing every statement")
		case "off":
			db.SetTraceSampling(0)
			fmt.Println("  tracing off")
		case "every":
			if len(fields) < 3 {
				fmt.Println("usage: \\trace every N")
				break
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				fmt.Println("error: N must be a non-negative integer")
				break
			}
			db.SetTraceSampling(n)
			fmt.Printf("  tracing 1 in %d statements\n", n)
		case "last":
			tr := db.LastTrace()
			if tr == nil {
				fmt.Println("  no trace retained (is sampling on? try \\trace on)")
				break
			}
			fmt.Print(trace.Render(tr))
		default:
			fmt.Println("usage: \\trace on|off|last|every N")
		}
	case `\user`:
		if len(fields) < 2 {
			fmt.Printf("  session %d, user %s\n", sess.ID(), sess.CurrentUser())
			break
		}
		if err := sess.SetUser(fields[1]); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Printf("  now %s\n", fields[1])
		}
	case `\checkpoint`:
		if err := db.Checkpoint(); err != nil {
			fmt.Println("error:", err)
		} else {
			next, durable := db.WALStats()
			fmt.Printf("  checkpoint written; log truncated (next lsn %d, durable %d)\n", next, durable)
		}
	case `\wal`:
		next, durable := db.WALStats()
		if next == 0 {
			fmt.Println("  no write-ahead log (start with -wal DIR)")
			break
		}
		fmt.Printf("  next lsn %d, durable through %d\n", next, durable)
	case `\prepare`:
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, `\prepare`))
		name, src, ok := strings.Cut(rest, " ")
		if !ok || name == "" || strings.TrimSpace(src) == "" {
			fmt.Println("usage: \\prepare NAME STMT")
			break
		}
		st, err := sess.Prepare(strings.TrimSpace(src))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if old := prepared[name]; old != nil {
			old.Close()
		}
		prepared[name] = st
		fmt.Printf("  prepared %s (%d parameters)\n", name, st.NumParams())
	case `\exec`:
		if len(fields) < 2 {
			fmt.Println("usage: \\exec NAME [ARG ...]")
			break
		}
		st := prepared[fields[1]]
		if st == nil {
			fmt.Printf("no prepared statement %q; see \\prepared\n", fields[1])
			break
		}
		rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(cmd, `\exec`)), fields[1]))
		args, err := shellArgs(rest)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		res, err := st.Exec(args...)
		if err != nil {
			fmt.Println("error:", err)
		} else if res != nil {
			fmt.Print(res)
		} else {
			fmt.Println("ok")
		}
	case `\prepared`:
		if len(prepared) == 0 {
			fmt.Println("  no prepared statements")
			break
		}
		names := make([]string, 0, len(prepared))
		for n := range prepared {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %s (%d parameters): %s\n", n, prepared[n].NumParams(),
				strings.Join(strings.Fields(prepared[n].Src()), " "))
		}
	case `\deallocate`:
		if len(fields) < 2 {
			fmt.Println("usage: \\deallocate NAME")
			break
		}
		st := prepared[fields[1]]
		if st == nil {
			fmt.Printf("no prepared statement %q\n", fields[1])
			break
		}
		st.Close()
		delete(prepared, fields[1])
		fmt.Printf("  deallocated %s\n", fields[1])
	default:
		fmt.Println("unknown meta command; try \\help")
	}
	return true
}
