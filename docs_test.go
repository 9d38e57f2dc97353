package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Each document describes the code and the results as they stand; what
// a change did, with its numbers, is CHANGES.md's. These caps keep the
// two that used to grow by a report per change from growing again.
var docCaps = []struct {
	file  string
	bytes int64
}{
	{"EXPERIMENTS.md", 45 << 10},
	{"DESIGN.md", 55 << 10},
}

// TestDocSizes: EXPERIMENTS.md and DESIGN.md stay under their caps.
func TestDocSizes(t *testing.T) {
	for _, c := range docCaps {
		fi, err := os.Stat(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > c.bytes {
			t.Errorf("%s is %d bytes, cap %d: new evidence goes into the section of the artifact it measures, history into CHANGES.md",
				c.file, fi.Size(), c.bytes)
		}
	}
}

var prInHeading = regexp.MustCompile(`\bPRs? \d+`)

// TestExperimentsHeadingsNameNoPR: EXPERIMENTS.md has a section per
// artifact of the paper's evaluation or experiment of this repository,
// none per change.
func TestExperimentsHeadingsNameNoPR(t *testing.T) {
	for _, h := range readHeadings(t, "EXPERIMENTS.md") {
		if h.level >= 2 && h.level <= 3 && prInHeading.MatchString(h.title) {
			t.Errorf("EXPERIMENTS.md heading %q names a change", h.title)
		}
	}
}

// standingDocs are the top-level documents that describe the
// repository as it is, so every section they point to must exist.
// CHANGES.md is not one of them: it quotes titles as they stood when
// each change was made. PAPER.md, PAPERS.md and SNIPPETS.md quote
// outside sources. Every .md file below the root is checked too.
var standingDocs = []string{"README.md", "ALGORITHM.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}

var (
	// A reference to a section, <file>.md "<title>" or <file>.md
	// ("<title>", once comment leaders and line breaks are spaces.
	sectionRef = regexp.MustCompile(`([A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md) \(?"([^"]+)"`)
	// A reference to an item of ALGORITHM.md's list of deviations.
	deviationRef = regexp.MustCompile(`ALGORITHM\.md deviation (\d+)`)
	// A line break and the comment leader of the next line, if any.
	lineBreak = regexp.MustCompile(`[ \t]*\n[ \t]*(?://+|#+(?:[ \t]|$))?[ \t]*`)
	spaces    = regexp.MustCompile(`\s+`)
	// A paragraph's bold lead, in a list item or not.
	boldLead = regexp.MustCompile(`^\s*(?:[-*] |\d+\. )?\*\*([^*]+)\*\*`)
)

// TestDocReferencesResolve: every quoted section reference in the
// repository's Go and shell files and its standing documents is a
// prefix of a heading, or of a paragraph's bold lead, in the file it
// names (a path from the repository root), and every "ALGORITHM.md
// deviation N" names an item of that list.
func TestDocReferencesResolve(t *testing.T) {
	var sources []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(name) {
		case ".go", ".sh":
			sources = append(sources, path)
		case ".md":
			if filepath.Dir(path) != "." {
				sources = append(sources, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, standingDocs...)

	titles := map[string][]string{}
	titlesOf := func(file string) ([]string, bool) {
		if ts, ok := titles[file]; ok {
			return ts, true
		}
		if _, err := os.Stat(file); err != nil {
			return nil, false
		}
		var ts []string
		for _, h := range readHeadings(t, file) {
			ts = append(ts, h.title)
		}
		titles[file] = ts
		return ts, true
	}
	deviations := deviationItems(t)

	refs := 0
	for _, src := range sources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		text := lineBreak.ReplaceAllString(string(data), " ")
		for _, m := range sectionRef.FindAllStringSubmatch(text, -1) {
			refs++
			file, title := m[1], spaces.ReplaceAllString(m[2], " ")
			ts, ok := titlesOf(file)
			if !ok {
				t.Errorf("%s refers to %s %q: no such file", src, file, title)
				continue
			}
			found := false
			for _, h := range ts {
				found = found || strings.HasPrefix(h, title)
			}
			if !found {
				t.Errorf("%s refers to %s %q: no heading or bold lead there begins so", src, file, title)
			}
		}
		for _, m := range deviationRef.FindAllStringSubmatch(text, -1) {
			refs++
			if n, _ := strconv.Atoi(m[1]); !deviations[n] {
				t.Errorf("%s refers to ALGORITHM.md deviation %d, which is not in its list", src, n)
			}
		}
	}
	if refs == 0 {
		t.Error("found no section reference at all: the pattern no longer matches how the documents quote")
	}
}

type heading struct {
	level int // 1–6 for a '#' heading, 0 for a bold lead
	title string
}

// readHeadings returns the '#' headings and bold paragraph leads of a
// markdown file, outside fenced code, with runs of white space folded.
func readHeadings(t *testing.T, file string) []heading {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var hs []heading
	fenced := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if level := len(line) - len(strings.TrimLeft(line, "#")); level > 0 && strings.HasPrefix(line[level:], " ") {
			hs = append(hs, heading{level, spaces.ReplaceAllString(strings.TrimSpace(line[level:]), " ")})
		} else if m := boldLead.FindStringSubmatch(line); m != nil {
			hs = append(hs, heading{0, spaces.ReplaceAllString(m[1], " ")})
		}
	}
	return hs
}

// deviationItems returns the numbers of the items under ALGORITHM.md's
// "Deviations" heading.
func deviationItems(t *testing.T) map[int]bool {
	t.Helper()
	data, err := os.ReadFile("ALGORITHM.md")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(data), "\n## Deviations")
	if !ok {
		t.Fatal(`ALGORITHM.md has no "## Deviations" section`)
	}
	list, _, _ = strings.Cut(list, "\n## ")
	items := map[int]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(\d+)\. `).FindAllStringSubmatch(list, -1) {
		n, _ := strconv.Atoi(m[1])
		items[n] = true
	}
	if len(items) == 0 {
		t.Fatal(`ALGORITHM.md's "Deviations" section lists no numbered item`)
	}
	return items
}
