package multihonest

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Production code is what the binaries run. TestEveryFunctionLinks builds
// every program the repository ships (cmd/..., examples/..., the perfbench
// module and a program that takes the root facade's whole exported API)
// with inlining off, reads their symbol tables, and fails on any function
// declared in a non-test file under internal/ that links into none of them
// and is not on unlinkedAllowlist. internal/conformance is the registry's
// own package and is left out. TestAnswerPathFMAFree inspects the same
// code from the other side: the compiled answer path of every GOARCH that
// fuses multiply-adds.

// unlinkedAllowlist names the functions, relative to internal/, that no
// binary links but that stay, each with the caller that keeps it. An entry
// stays only when the function cannot move next to that caller: a method,
// a symbol that internal/conformance or the root package's benchmarks
// call, or one that the tests of several packages share.
var unlinkedAllowlist = map[string]string{
	// The slice-at-a-time references of the streaming Monte-Carlo
	// verdicts, the scalar Feed path of the block verdicts and the scalar
	// samplers, which conformance compares the production block path with.
	"mc.NoUniquelyHonestCatalanVerdict":   "conformance mc-e1-stream-equals-slice, runner-block-scalar-identity",
	"mc.NoConsecutiveCatalanVerdict":      "conformance mc-e2-stream-equals-slice, runner-block-scalar-identity",
	"mc.SettlementViolationVerdict":       "conformance mc-e3-stream-equals-slice, runner-block-scalar-identity",
	"mc.DeltaUnsettledVerdict":            "conformance mc-e4-stream-equals-slice, runner-block-scalar-identity",
	"mc.CPViolationVerdict":               "conformance mc-e5-stream-equals-slice, runner-block-scalar-identity",
	"mc.NewNoConsecCatalanStreamVerdict":  "conformance mc-e2-stream-equals-slice, runner-block-scalar-identity",
	"mc.StreamBernoulliSampler":           "conformance rare-unit-tilt-equals-plain-mc, runner-block-scalar-identity",
	"mc.StreamConditionedSemiSyncSampler": "conformance runner-block-scalar-identity",
	"mc.(*noUHCatalanStream).Feed":        "conformance runner-block-scalar-identity (scalar stream path)",
	"mc.(*noConsecCatalanStream).Feed":    "conformance runner-block-scalar-identity (scalar stream path)",
	"mc.(*settlementStream).Feed":         "conformance runner-block-scalar-identity (scalar stream path)",
	"mc.(*deltaUnsettledStream).Feed":     "conformance runner-block-scalar-identity (scalar stream path)",
	"mc.(*cpStream).Feed":                 "conformance runner-block-scalar-identity (scalar stream path)",
	"rare.(*TiltedVerdict).Feed":          "conformance runner-block-scalar-identity (scalar stream path)",
	"rare.TiltedSync.Sampler":             "conformance runner-block-scalar-identity",
	"rare.TiltedSemiSync.Sampler":         "conformance runner-block-scalar-identity",
	"rare.TiltSync":                       "conformance rare-unit-tilt-equals-plain-mc, runner-weighted-worker-invariance",
	"rare.TiltedSync.BlockSampler":        "conformance rare-unit-tilt-equals-plain-mc, runner-weighted-worker-invariance",

	// What the slice references above call.
	"deltasync.Settled":                 "mc.DeltaUnsettledVerdict",
	"deltasync.Reduce":                  "deltasync.Settled",
	"deltasync.quietAfter":              "deltasync.Reduce",
	"cp.ViolationPossible":              "mc.CPViolationVerdict",
	"cp.UVPFreeWindow":                  "cp.ViolationPossible; conformance FuzzStreamScanners",
	"catalan.(*Scan).HasUVP":            "cp.UVPFreeWindow",
	"catalan.(*Scan).ConsecutivePairAt": "catalan.(*Scan).HasUVP, mc.NoConsecutiveCatalanVerdict",
	"margin.RelativeMargin":             "mc.SettlementViolationVerdict; conformance margin-recurrence-equals-astar-fork, chainsim-margins-equal-astar",

	// References production is compared against, and the readers the
	// registry checks it through.
	"settlement.(*Computer).ViolationProbabilityNaive": "conformance dp-capped-equals-naive; BenchmarkDPNaive",
	"settlement.(*Computer).ViolationCurveUpper":       "BenchmarkUpperCurveIncremental/scratch; settlement and core tests",
	"lattice.(*Engine).Mass":                           "conformance lattice-banded-equals-full",
	"lattice.(*Engine).Total":                          "conformance lattice-banded-equals-full",
	"lattice.(*Engine).Recycled":                       "conformance lattice-banded-equals-full",
	"fork.(*Fork).MaxReach":                            "conformance margin-recurrence-equals-astar-fork, chainsim-margins-equal-astar",
	"chainsim.(*Sim).AllBlocks":                        "conformance chainsim-margins-equal-astar",

	// Methods the tests of several packages share.
	"fork.(*Fork).VerticesAt":          "fork and adversary tests",
	"fork.(*Fork).MaxHonestDepthUpTo":  "fork and adversary tests",
	"fork.(*Fork).HonestDepth":         "fork.(*Fork).MaxHonestDepthUpTo",
	"charstring.SemiSyncParams.Sample": "mc, deltasync and charstring tests",

	// Pending deletion: only the package's own tests call these. Deleting
	// them deletes five tests with them, so they are left for a change of
	// their own.
	"stats.Summarize":  "pending deletion; stats tests only",
	"stats.WSummarize": "pending deletion; stats tests only",
}

// facadeRoots are the types the root facade (doc.go) re-exports or
// returns, as package path → type names. Their exported methods are
// public API: the facade program links every one of them.
var facadeRoots = map[string][]string{
	"multihonest/internal/core":       {"Analyzer", "Diagnosis"},
	"multihonest/internal/charstring": {"String"},
}

const modulePath = "multihonest"

func TestEveryFunctionLinks(t *testing.T) {
	declared := declaredFuncs(t, "internal", "internal/conformance")
	linked := make(map[string]bool)
	for _, bin := range buildShippedBinaries(t) {
		for name := range linkedFuncs(t, bin) {
			linked[name] = true
		}
	}

	var unlinked []string
	for name, d := range declared {
		if _, ok := unlinkedAllowlist[strings.TrimPrefix(name, modulePath+"/internal/")]; ok || linked[name] {
			continue
		}
		unlinked = append(unlinked, fmt.Sprintf("%s (%s, %d lines)", name, d.pos, d.lines))
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("links into no binary: %s", u)
	}
	for key, caller := range unlinkedAllowlist {
		switch name := modulePath + "/internal/" + key; {
		case declared[name] == nil:
			t.Errorf("allowlist entry %s (kept for %s) is no longer declared", key, caller)
		case linked[name]:
			t.Errorf("allowlist entry %s (kept for %s) now links into a binary; drop the entry", key, caller)
		}
	}
}

// decl is one function declaration: where it is and how long it is.
type decl struct {
	pos   string
	lines int
}

// declaredFuncs maps every function and method declared in the non-test
// files of the packages under dir (minus the skip subtree) to its
// position, keyed by the name the linker gives it once normalized:
// "multihonest/internal/pkg.F", "multihonest/internal/pkg.(*T).M" or
// "multihonest/internal/pkg.T.M". init functions are always linked and are
// left out.
func declaredFuncs(t *testing.T, dir, skip string) map[string]*decl {
	t.Helper()
	fset := token.NewFileSet()
	out := make(map[string]*decl)
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == skip || e.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := modulePath + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			out[pkg+"."+funcKey(fd)] = &decl{
				pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(path), start.Line),
				lines: end.Line - start.Line + 1,
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// funcKey is a declaration's linker name within its package: "F", "T.M"
// or "(*T).M", with any type parameters dropped.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	ptr := false
	if st, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, st.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fd.Name.Name
}

// buildShippedBinaries builds, with inlining off so that every function a
// program calls keeps its own symbol, each binary the repository ships:
// the cmd/ tools, the examples, the perfbench driver and its worker, and
// a program that takes every facade entry point and every exported method
// of the facadeRoots types. It returns their paths.
func buildShippedBinaries(t *testing.T) []string {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	facade := filepath.Join(out, "facade")
	if err := os.MkdirAll(facade, 0o755); err != nil {
		t.Fatal(err)
	}
	gomod := fmt.Sprintf("module facaderoots\n\ngo 1.24\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", modulePath, modulePath, root)
	if err := os.WriteFile(filepath.Join(facade, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(facade, "main.go"), facadeProgram(t), 0o644); err != nil {
		t.Fatal(err)
	}

	sep := string(filepath.Separator)
	bin, bench := filepath.Join(out, "bin")+sep, filepath.Join(out, "perfbench")+sep
	for _, b := range []struct {
		dir  string
		args []string
	}{
		{root, []string{"-o", bin, "./cmd/...", "./examples/..."}},
		{filepath.Join(root, "perfbench"), []string{"-o", bench, ".", "./worker"}},
		{facade, []string{"-o", filepath.Join(facade, "facade"), "."}},
	} {
		runGo(t, b.dir, nil, append([]string{"build", "-buildvcs=false", "-gcflags=all=-l"}, b.args...)...)
	}
	bins := []string{filepath.Join(facade, "facade")}
	for _, dir := range []string{bin, bench} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			bins = append(bins, filepath.Join(dir, e.Name()))
		}
	}
	if len(bins) < 16 {
		t.Fatalf("built %d binaries, want the 13 under cmd/ and examples/, perfbench, its worker and the facade program", len(bins))
	}
	return bins
}

// runGo runs the go command in dir with env added to the environment and
// returns its combined output, failing the test if it fails.
func runGo(t *testing.T, dir string, env []string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	msg, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s go %s in %s: %v\n%s", strings.Join(env, " "), strings.Join(args, " "), dir, err, msg)
	}
	return msg
}

// facadeProgram is the source of a program that references the facade's
// functions and a method value of every exported method of the
// facadeRoots types, so that the linker keeps each one and all it calls.
// It is built, never run.
func facadeProgram(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("package main\n\nimport mh \"multihonest\"\n\n")
	b.WriteString("var (\n\ta  *mh.Analyzer\n\td  mh.Diagnosis\n\ts, _ = mh.ParseString(\"\")\n)\n\n")
	b.WriteString("var roots = []any{\n\tmh.NewAnalyzer, mh.ParseString, mh.Diagnose,\n")
	vars := map[string]string{"Analyzer": "a", "Diagnosis": "d", "String": "s"}
	for pkg, types := range facadeRoots {
		dir := strings.TrimPrefix(pkg, modulePath+"/")
		for key := range declaredFuncs(t, dir, "") {
			name := strings.TrimPrefix(key, pkg+".")
			for _, typ := range types {
				for _, form := range []string{typ + ".", "(*" + typ + ")."} {
					m, ok := strings.CutPrefix(name, form)
					if ok && ast.IsExported(m) {
						fmt.Fprintf(&b, "\t%s.%s,\n", vars[typ], m)
					}
				}
			}
		}
	}
	b.WriteString("}\n\nfunc main() { println(len(roots)) }\n")
	return b.Bytes()
}

// linkedFuncs reads a binary's symbol table and returns the normalized
// names of the module's functions in it.
func linkedFuncs(t *testing.T, bin string) map[string]bool {
	t.Helper()
	out := runGo(t, ".", nil, "tool", "nm", bin)
	names := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "  4a2f60 T multihonest/internal/pkg.F": address, kind, name.
		fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		if !strings.HasPrefix(fields[2], modulePath+"/") {
			continue
		}
		name := linkedName(fields[2])
		names[name] = true
		// A value method's pointer wrapper calls the value method.
		if i := strings.Index(name, ".(*"); i >= 0 {
			names[name[:i]+"."+strings.Replace(name[i+3:], ")", "", 1)] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return names
}

// closureSuffix matches the parts the compiler appends to a function's
// name for the code it generates inside it: closures (.func1, .func1.2),
// go and defer wrappers (.gowrap1, .deferwrap1) and method values (-fm).
var closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?\d+)+(-fm)?$|-fm$`)

// linkedName maps a linked symbol back to the name its declaration has
// under funcKey: it drops instantiation shapes (F[go.shape.int],
// (*T[go.shape.string]).M) and the suffixes of code generated inside the
// function.
func linkedName(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return closureSuffix.ReplaceAllString(b.String(), "")
}

func TestLinkedName(t *testing.T) {
	const p = "multihonest/internal/oracle."
	for _, c := range []struct{ sym, want string }{
		{p + "fnv1a", p + "fnv1a"},
		{p + "fnv1a[go.shape.[]uint8]", p + "fnv1a"},
		{p + "readParam[go.shape.int]", p + "readParam"},
		{p + "readParam[go.shape.struct { A []uint8; B [2]int }]", p + "readParam"},
		{"multihonest/internal/runner.RunStreamBlocks[go.shape.*uint8]", "multihonest/internal/runner.RunStreamBlocks"},
		{"multihonest/internal/runner.RunStreamWeightedBlocks[go.shape.*uint8].func1.1", "multihonest/internal/runner.RunStreamWeightedBlocks"},
		{"multihonest/internal/mc.mustRunBlocks[go.shape.*uint8]", "multihonest/internal/mc.mustRunBlocks"},
		{p + "(*Cache[go.shape.string,go.shape.int]).Get", p + "(*Cache).Get"},
		{p + "Cache[go.shape.int].Len", p + "Cache.Len"},
		{p + "(*Server).serve.func1", p + "(*Server).serve"},
		{p + "(*Server).serve.func1.2", p + "(*Server).serve"},
		{p + "(*Cluster).Close.gowrap1", p + "(*Cluster).Close"},
		{p + "(*Checkpointer).Run.deferwrap1", p + "(*Checkpointer).Run"},
		{p + "(*Checkpointer).Run.deferwrap2", p + "(*Checkpointer).Run"},
		{p + "(*Oracle).Get-fm", p + "(*Oracle).Get"},
		{p + "New.func2-fm", p + "New"},
	} {
		if got := linkedName(c.sym); got != c.want {
			t.Errorf("linkedName(%q) = %q, want %q", c.sym, got, c.want)
		}
	}
}

// fmaFreePackages are the packages whose compiled code produces served
// answer bytes: the lattice kernel, the reach law that seeds it, the
// settlement DP and facade over them, and the oracle service. The Go spec
// lets a compiler fuse x*y + z into one multiply-add, which rounds once
// where the two operations round twice; amd64 never does, the targets
// below do. An explicit float64(...) around a product forbids the fusion.
var fmaFreePackages = []string{"./internal/lattice", "./internal/walk", "./internal/settlement", "./internal/core", "./internal/oracle"}

// fusedOp matches a fused multiply-add instruction of arm64, ppc64le,
// s390x or riscv64 in any precision.
var fusedOp = regexp.MustCompile(`\bF(N)?M(ADD|SUB)[A-Z]*\b`)

// TestAnswerPathFMAFree cross-compiles the answer path for every GOARCH
// that fuses multiply-adds and fails on any fused instruction, so that a
// replica on any architecture serves the bytes an amd64 replica serves.
func TestAnswerPathFMAFree(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles four architectures")
	}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		asm := runGo(t, ".", []string{"GOOS=linux", "GOARCH=" + arch},
			append([]string{"build", "-gcflags=-S"}, fmaFreePackages...)...)
		for _, line := range strings.Split(string(asm), "\n") {
			if fusedOp.MatchString(line) {
				t.Errorf("%s: fused multiply-add on the answer path: %s", arch, strings.TrimSpace(line))
			}
		}
	}
}
