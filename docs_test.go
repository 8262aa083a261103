//go:build !race

package bdrmap

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// maxDocsAllow caps testdata/docs_allow.txt: the list is for names the docs
// mention as history on purpose, not for prose nobody updated.
const maxDocsAllow = 20

var (
	// docSpan is one `code span` of a Markdown file.
	docSpan = regexp.MustCompile("`[^`\n]+`")
	// docName is pkg.Ident or pkg.Type.Member, optionally called:
	// `core.Infer`, `core.Result.Intern`, `core.Infer(in)`.
	docName = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)
	// docFlag is a command-line flag: `-data-dir`.
	docFlag = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)
)

// resolveDocName reports whether pkg.name — or pkg.name.member — names
// something go/types can find. A two-part name is an object of the package
// scope or, as the docs write `eval.RunFleet` for Scenario.RunFleet, a
// field or method of one of the package's types.
func resolveDocName(pkg *types.Package, name, member string) bool {
	obj := pkg.Scope().Lookup(name)
	if member != "" {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return false
		}
		m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, member)
		return m != nil
	}
	if obj != nil {
		return true
	}
	for _, n := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
			if m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, name); m != nil {
				return true
			}
		}
	}
	return false
}

// TestDocsNameLiveIdentifiers is the docs gate: README.md and DESIGN.md
// describe the code as it is. Every code span that reads as a Go name of
// this module — pkg.Ident or pkg.Type.Member with pkg one of the module's
// packages — must resolve through go/types, and every span that reads as
// a repo-relative path (its first element a top-level directory) must
// exist. Counter, stage and span names share the pkg.word shape
// (`core.infer`, `mapdb.lookup.owner_ns`); they are all lower case, so a
// span counts as a Go name only when the word after the package has an
// upper-case letter. Every span that reads as a flag — `-name` — must be
// one a command under cmd/ defines (cmdFlags). Metric names are not
// checked. A name the docs keep as history on purpose, or a flag of
// another tool, goes in testdata/docs_allow.txt with its reason; a listed
// name that resolves, or that no document mentions, fails the test too.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string][]*types.Package)
	for _, pkg := range m.pkgs {
		if pkg.Name() != "main" {
			byName[pkg.Name()] = append(byName[pkg.Name()], pkg)
		}
	}
	flags := make(map[string]bool)
	for name := range cmdFlags(m) {
		_, flag, _ := strings.Cut(name, " ")
		flags[flag] = true
	}
	top := make(map[string]bool)
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			top[e.Name()] = true
		}
	}

	allow := readAllowList(t, "docs_allow.txt", maxDocsAllow, func(_, reason string) bool { return reason != "" }, "give a reason")
	stale := make(map[string]bool) // one message per (document, span)
	allowed := make(map[string]bool)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docSpan.FindAllString(string(text), -1) {
			span = strings.Trim(span, "`")
			if strings.ContainsAny(span, " <{*") {
				continue // a command line, a placeholder, a glob
			}
			bad := ""
			if docFlag.MatchString(span) && !flags[span] {
				bad = "no command under cmd/ defines this flag"
			}
			name := span
			if first, _, isPath := strings.Cut(span, "/"); isPath && top[first] {
				path := span
				name = ""
				// internal/obs.SpanLog is a path and a name.
				dir, last := filepath.Split(path)
				if g := docName.FindStringSubmatch(last); g != nil && unicode.IsUpper(rune(g[2][0])) {
					path, name = dir+g[1], last
				}
				if _, err := os.Stat(path); err != nil {
					bad = "no such path"
				}
			}
			if g := docName.FindStringSubmatch(name); g != nil && byName[g[1]] != nil && strings.IndexFunc(g[2], unicode.IsUpper) >= 0 {
				found := false
				for _, pkg := range byName[g[1]] {
					found = found || resolveDocName(pkg, g[2], g[3])
				}
				if !found {
					bad = "no such declaration"
				}
			}
			if bad != "" && allow[span] {
				allowed[span] = true
			} else if bad != "" {
				stale[doc+": `"+span+"`: "+bad] = true
			}
		}
	}
	for name := range allow {
		if !allowed[name] {
			t.Errorf("docs_allow.txt lists %s, which resolves or which no document mentions: drop the line", name)
		}
	}
	msgs := make([]string, 0, len(stale))
	for msg := range stale {
		msgs = append(msgs, msg)
	}
	sort.Strings(msgs)
	for _, msg := range msgs {
		t.Errorf("%s — rewrite the sentence, or list the span in testdata/docs_allow.txt with the reason it stays", msg)
	}
}
