package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// treeEntry matches a directory of README's architecture tree: a path
// ending in a slash at the top level or one level in, the column the
// tree nests by (a comment's continuation lines sit further in).
var treeEntry = regexp.MustCompile(`^( {0,2})(\S+/)(\s|$)`)

// TestReadmeTreeListsThePackages: the fenced tree under README's
// "Architecture" heading names every package of the module, and only
// those. A directory the tree lists with entries under it (internal/,
// cmd/) is a parent, not a package.
func TestReadmeTreeListsThePackages(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, arch, ok := strings.Cut(string(readme), "\n## Architecture\n")
	if !ok {
		t.Fatal(`README.md has no "## Architecture" section`)
	}
	fence := strings.Split(arch, "```")
	if len(fence) < 3 {
		t.Fatal("README.md's architecture section has no fenced tree")
	}
	var listed []string
	parent := ""
	for _, line := range strings.Split(fence[1], "\n") {
		m := treeEntry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		dir := strings.TrimSuffix(m[2], "/")
		if m[1] == "" {
			parent = dir
		} else {
			dir = parent + "/" + dir
			listed = slices.DeleteFunc(listed, func(d string) bool { return d == parent })
		}
		listed = append(listed, dir)
	}

	var packages []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); !d.IsDir() && dir != "." &&
			strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			packages = append(packages, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(packages)
	packages = slices.Compact(packages)
	slices.Sort(listed)
	for _, p := range packages {
		if _, found := slices.BinarySearch(listed, p); !found {
			t.Errorf("package %s is missing from README's tree", p)
		}
	}
	for _, d := range listed {
		if _, found := slices.BinarySearch(packages, d); !found {
			t.Errorf("README's tree lists %s/, which is no package", d)
		}
	}
}
