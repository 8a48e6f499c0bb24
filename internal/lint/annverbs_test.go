package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Every extra: verb the annotation parser understands must be consumed
// by at least one analyzer — an orphaned verb is vocabulary rot: code
// carries an annotation that silently checks nothing. The test parses
// parseAnnotations' switch to recover the verb → Annotations-field
// mapping, then requires each field to be read (as Ann.<Field>) in some
// analyzer file other than lint.go itself. The rot runs the other way
// too: parseAnnotations skips a verb it does not know without a word,
// so every "// extra:<verb>" comment line in the module's Go files
// (fixtures aside) must name a verb it knows, or extra:lock, which
// lockcheck reads from a field's comment.
func TestAnnotationVerbsAllConsumed(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "lint.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// verb -> Annotations field assigned in its case body.
	verbField := map[string]string{}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "parseAnnotations" {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			var verbs []string
			for _, e := range cc.List {
				if lit, ok := e.(*ast.BasicLit); ok {
					verbs = append(verbs, strings.Trim(lit.Value, `"`))
				}
			}
			var field string
			ast.Inspect(&ast.BlockStmt{List: cc.Body}, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && field == "" {
					if sel, ok := as.Lhs[0].(*ast.SelectorExpr); ok {
						field = sel.Sel.Name
					}
				}
				return true
			})
			for _, v := range verbs {
				verbField[v] = field
			}
			return true
		})
	}
	if len(verbField) == 0 {
		t.Fatal("found no verbs in parseAnnotations; did the parser move?")
	}
	// The vocabulary DESIGN.md documents, and nothing else: a retired
	// verb must leave the parser too.
	var verbs []string
	for v := range verbField {
		verbs = append(verbs, v)
	}
	sort.Strings(verbs)
	if got, want := strings.Join(verbs, " "), "acquires dispatch holds output requires snapshot"; got != want {
		t.Errorf("parseAnnotations understands %q, want %q", got, want)
	}

	// Collect Ann.<Field> reads from every other file in the package.
	consumed := map[string]bool{}
	use := regexp.MustCompile(`\bAnn\.([A-Z][A-Za-z]*)`)
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == "lint.go" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(".", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range use.FindAllStringSubmatch(string(src), -1) {
			consumed[m[1]] = true
		}
	}

	// Annotation lines in the module's own files.
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "internal", "lint", "fixtures") || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir // a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				verb, ok := strings.CutPrefix(line, "extra:")
				if !ok {
					continue
				}
				if fields := strings.Fields(verb); len(fields) > 0 {
					verb = fields[0]
				}
				if _, known := verbField[verb]; !known && verb != "lock" {
					t.Errorf("%s: extra:%s is not a verb parseAnnotations knows; it checks nothing", fset.Position(c.Pos()), verb)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for verb, field := range verbField {
		if field == "" {
			t.Errorf("verb extra:%s: could not find the Annotations field it sets", verb)
			continue
		}
		if !consumed[field] {
			t.Errorf("verb extra:%s sets Annotations.%s, but no analyzer reads Ann.%s — dead vocabulary", verb, field, field)
		}
	}
}
