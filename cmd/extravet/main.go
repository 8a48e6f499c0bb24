// Extravet runs the engine's static-analysis suite over the repository:
//
//	go run ./cmd/extravet ./...
//
// It loads the matched packages (plus every main-module dependency, so
// cross-package facts like "transitively reaches the commit lock"
// resolve), runs the four analyzers from internal/lint (lockcheck,
// atomiccheck, detorder and snapcheck), prints findings sorted
// by file, line and column in the standard file:line:col format, and
// exits 1 if (and only if) anything was reported: loader warnings go to
// stderr but never fail the run, so CI failures always mean findings.
//
// Flags:
//
//	-run name,name   run only the named analyzers
//	-list            print the analyzer names and exit
//	-tags a,b        build tags for package loading (e.g. deadlockcheck)
//	-json            print findings as a JSON array instead of text
//	-time            print per-analyzer wall time to stderr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

// jsonDiag is one finding in -json mode, shaped for tooling.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	tags := flag.String("tags", "", "comma-separated build tags to load packages with")
	asJSON := flag.Bool("json", false, "print findings as JSON")
	timing := flag.Bool("time", false, "print per-analyzer wall time to stderr")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *runList != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "extravet: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var tagList []string
	if *tags != "" {
		tagList = strings.Split(*tags, ",")
	}
	res, err := lint.Load(".", patterns, tagList...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "extravet: %v\n", err)
		os.Exit(2)
	}
	for _, w := range res.Warnings {
		fmt.Fprintf(os.Stderr, "extravet: warning: %s\n", w)
	}

	// Lint fixtures contain deliberate violations; never report them on
	// a real run.
	var report []string
	for _, path := range res.Matched {
		if strings.Contains(path, "internal/lint/fixtures") {
			continue
		}
		report = append(report, path)
	}

	diags, times := lint.Run(res.Prog, analyzers, report)
	if *timing {
		for _, t := range times {
			fmt.Fprintf(os.Stderr, "extravet: %-12s %8.3fs\n", t.Name, t.Elapsed.Seconds())
		}
	}
	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			pos := res.Prog.Fset.Position(d.Pos)
			out = append(out, jsonDiag{
				File:     pos.Filename,
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "extravet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s: %s\n", res.Prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "extravet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
