package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func init() {
	Register(Check{
		Name: "noalloc",
		Doc: "functions annotated //spcoh:noalloc must be free of heap allocation; " +
			"verified against `go build -gcflags=-m` escape-analysis output " +
			"(note: the compiler attributes inlined callees' allocations to the " +
			"call site, so cold-path pool refills need an inline //spvet:allow)",
		RunModule: checkNoalloc,
	})
}

// noallocFunc is one annotated function: findings land on compiler
// diagnostics positioned inside its declaration's line range.
type noallocFunc struct {
	name      string
	file      string // module-root-relative, as parsed
	from, to  int    // line range of the declaration (inclusive)
	namePos   token.Pos
	hasReport bool
}

// escapeLineRe matches one compiler diagnostic: "file:line:col: message".
var escapeLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// checkNoalloc gathers the //spcoh:noalloc set from the matched packages,
// compiles their directories with escape-analysis diagnostics enabled, and
// reports every heap escape or closure allocation attributed to a line
// inside an annotated function.
func checkNoalloc(mp *ModulePass) error {
	var funcs []*noallocFunc
	dirs := make(map[string]bool)
	for _, pkg := range mp.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasMarker(fd.Doc, NoallocAnnotation) {
					continue
				}
				start := mp.Fset.Position(fd.Pos())
				end := mp.Fset.Position(fd.End())
				funcs = append(funcs, &noallocFunc{
					name:    fd.Name.Name,
					file:    start.Filename,
					from:    start.Line,
					to:      end.Line,
					namePos: fd.Name.Pos(),
				})
				dirs["./"+pkg.Dir] = true
			}
		}
	}
	if len(funcs) == 0 {
		return nil
	}
	args := []string{"build", "-gcflags=-m"}
	for d := range dirs { //spvet:allow maprange,floatorder -- sorted below
		args = append(args, d)
	}
	sort.Strings(args[2:]) // deterministic compile order (and output grouping)
	cmd := exec.Command("go", args...)
	cmd.Dir = mp.ModRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build -gcflags=-m failed: %v\n%s", err, out)
	}
	seen := make(map[string]bool)
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := strings.TrimPrefix(m[1], "./")
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		fn := owningFunc(funcs, file, lineNo)
		if fn == nil || seen[line] {
			continue
		}
		seen[line] = true
		mp.ReportPosition(token.Position{Filename: file, Line: lineNo, Column: col}, "noalloc", "",
			fmt.Sprintf("heap allocation in //%s function %s: %s", NoallocAnnotation, fn.name, msg))
	}
	return nil
}

func owningFunc(funcs []*noallocFunc, file string, line int) *noallocFunc {
	for _, f := range funcs {
		if f.file == file && line >= f.from && line <= f.to {
			return f
		}
	}
	return nil
}

// hasMarker reports whether a doc comment carries the given annotation as a
// standalone "//marker" line (optionally followed by explanatory text).
func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}
