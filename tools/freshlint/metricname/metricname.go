// Package metricname lint-checks every metric registered on
// stats.Registry against the repository's Prometheus naming
// conventions, so the exposition stays queryable with one consistent
// vocabulary: snake_case names under the freshcache_ prefix, _total on
// counters, base units only (_seconds, never _ms), labels drawn from a
// fixed set, and non-empty help strings.
package metricname

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"freshcache/tools/freshlint/analysis"
	"freshcache/tools/freshlint/internal/lintutil"
)

const statsPkg = "internal/stats"

// Analyzer checks metric names, labels, and help strings at
// registration sites.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: `check stats.Registry metric names against Prometheus conventions

Every name registered on stats.Registry must be resolvable to a
compile-time constant (directly or through the prefix-closure idiom
used by buildRegistry), match ^[a-z][a-z0-9_]*$ with no "__" runs,
carry the freshcache_ prefix, end in _total iff it is a counter, use
base units (_seconds/_bytes/_ratio/_size — never _ms/_us/_ns), avoid
the reserved _bucket/_sum/_count suffixes, draw label names from the
fixed repository set, and have non-empty help. Test files are exempt:
they intentionally register odd names (the fc_test_ namespace) to
exercise the renderer.`,
	Run: run,
}

// registryMethods maps each Registry registration method to the metric
// kind it creates and where its label-name argument sits (-1 none;
// labelsAt is a []string composite for Labeled*, a single string for
// GaugeVec).
var registryMethods = map[string]struct {
	kind     string // "counter", "gauge", "histogram"
	labelsAt int
	vecLabel bool // labelsAt is one string, not a []string literal
}{
	"Counter":          {"counter", -1, false},
	"LabeledCounter":   {"counter", 2, false},
	"CounterFunc":      {"counter", -1, false},
	"Gauge":            {"gauge", -1, false},
	"LabeledGauge":     {"gauge", 2, false},
	"GaugeVec":         {"gauge", 2, true},
	"Histogram":        {"histogram", -1, false},
	"LabeledHistogram": {"histogram", 2, false},
}

// labelAllowlist is the fixed label vocabulary. Adding a label here is
// a deliberate schema change, reviewed like one.
var labelAllowlist = map[string]bool{
	"op":     true, // batch operation: mget, mput
	"kind":   true, // miss cause: stale, cold
	"action": true, // push decision: invalidate, update
	"store":  true, // store address
	"addr":   true, // peer address
	"change": true, // pending membership change id
	"node":   true, // cluster node id
	"result": true, // ok / error outcome
	"edge":   true, // flush edge a key was pushed on: leading, cooldown
}

var nameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// histogramUnits are the accepted histogram name suffixes: every
// histogram measures seconds, bytes, a ratio, or a size distribution.
var histogramUnits = []string{"_seconds", "_bytes", "_ratio", "_size"}

// wrapper records the prefix-closure idiom:
//
//	counter := func(name, help, key string, c *stats.Counter) {
//	    r.Counter("freshcache_cache_"+name, help, key, c)
//	}
//
// Calls to counter("gets_total", ...) are then checked with the full
// concatenated name.
type wrapper struct {
	kind    string
	prefix  string
	nameArg int // wrapper parameter index concatenated after prefix
	helpArg int // wrapper parameter index forwarded as help, or -1
}

func run(pass *analysis.Pass) (interface{}, error) {
	// The stats package itself is the sink: its exported methods forward
	// name parameters to each other, which is not a registration site.
	if lintutil.PkgPathIs(pass.Pkg.Path(), statsPkg) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		wrappers := collectWrappers(pass, file)
		checkCalls(pass, file, wrappers)
	}
	return nil, nil
}

func isTestFile(pass *analysis.Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
}

// registryMethod resolves call to a stats.Registry registration method.
func registryMethod(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := lintutil.Callee(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	if _, ok := registryMethods[fn.Name()]; !ok {
		return "", false
	}
	if !lintutil.IsMethod(fn, statsPkg, "Registry", fn.Name()) {
		return "", false
	}
	return fn.Name(), true
}

// collectWrappers finds local closures that wrap a registry method with
// a constant name prefix.
func collectWrappers(pass *analysis.Pass, file *ast.File) map[*types.Var]wrapper {
	wrappers := make(map[*types.Var]wrapper)
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		fl, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		wv := lintutil.VarOf(pass.TypesInfo, as.Lhs[0])
		if wv == nil {
			return true
		}
		// Map the closure's parameters to their positions.
		paramIdx := make(map[*types.Var]int)
		i := 0
		for _, field := range fl.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					paramIdx[v] = i
				}
				i++
			}
		}
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := registryMethod(pass, call)
			if !ok || len(call.Args) < 2 {
				return true
			}
			// Name argument must be <const prefix> + <param>.
			be, ok := ast.Unparen(call.Args[0]).(*ast.BinaryExpr)
			if !ok || be.Op != token.ADD {
				return true
			}
			prefix, ok := lintutil.ConstString(pass.TypesInfo, be.X)
			if !ok {
				return true
			}
			nv := lintutil.VarOf(pass.TypesInfo, be.Y)
			if nv == nil {
				return true
			}
			nameArg, isParam := paramIdx[nv]
			if !isParam {
				return true
			}
			helpArg := -1
			if hv := lintutil.VarOf(pass.TypesInfo, call.Args[1]); hv != nil {
				if idx, ok := paramIdx[hv]; ok {
					helpArg = idx
				}
			}
			wrappers[wv] = wrapper{
				kind:    registryMethods[method].kind,
				prefix:  prefix,
				nameArg: nameArg,
				helpArg: helpArg,
			}
			return true
		})
		return true
	})
	return wrappers
}

// checkCalls validates direct registry registrations and wrapper calls.
func checkCalls(pass *analysis.Pass, file *ast.File, wrappers map[*types.Var]wrapper) {
	// Registry calls inside wrapper closures are validated at the
	// wrapper's call sites instead (the name is completed there).
	inWrapper := make(map[*ast.CallExpr]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if wv := lintutil.VarOf(pass.TypesInfo, as.Lhs[0]); wv != nil {
			if _, isWrapper := wrappers[wv]; isWrapper {
				ast.Inspect(as.Rhs[0], func(n ast.Node) bool {
					if c, ok := n.(*ast.CallExpr); ok {
						if _, ok := registryMethod(pass, c); ok {
							inWrapper[c] = true
						}
					}
					return true
				})
			}
		}
		return true
	})

	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}

		// Wrapper call site: complete the name with the recorded prefix.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
				if w, ok := wrappers[v]; ok {
					name, cok := "", false
					if w.nameArg < len(call.Args) {
						name, cok = lintutil.ConstString(pass.TypesInfo, call.Args[w.nameArg])
					}
					if !cok {
						pass.Reportf(call.Pos(), "metric name passed to %s is not a compile-time constant", id.Name)
						return true
					}
					help, hok := "", true
					if w.helpArg >= 0 && w.helpArg < len(call.Args) {
						help, hok = lintutil.ConstString(pass.TypesInfo, call.Args[w.helpArg])
					}
					checkName(pass, call.Args[w.nameArg].Pos(), w.prefix+name, w.kind)
					if hok && help == "" {
						pass.Reportf(call.Pos(), "metric %s%s registered with empty help text", w.prefix, name)
					}
					return true
				}
			}
		}

		method, ok := registryMethod(pass, call)
		if !ok || inWrapper[call] || len(call.Args) < 2 {
			return true
		}
		spec := registryMethods[method]
		name, cok := lintutil.ConstString(pass.TypesInfo, call.Args[0])
		if !cok {
			pass.Reportf(call.Args[0].Pos(), "metric name passed to Registry.%s is not a compile-time constant: use a literal or the prefix-closure idiom", method)
			return true
		}
		checkName(pass, call.Args[0].Pos(), name, spec.kind)
		if help, ok := lintutil.ConstString(pass.TypesInfo, call.Args[1]); ok && help == "" {
			pass.Reportf(call.Args[1].Pos(), "metric %s registered with empty help text", name)
		}
		checkLabels(pass, call, spec.labelsAt, spec.vecLabel)
		return true
	})
}

func checkLabels(pass *analysis.Pass, call *ast.CallExpr, labelsAt int, vecLabel bool) {
	if labelsAt < 0 || labelsAt >= len(call.Args) {
		return
	}
	arg := call.Args[labelsAt]
	if vecLabel {
		if l, ok := lintutil.ConstString(pass.TypesInfo, arg); ok {
			checkLabel(pass, arg.Pos(), l)
		}
		return
	}
	cl, ok := ast.Unparen(arg).(*ast.CompositeLit)
	if !ok {
		return // nil labelNames, or passed through a variable
	}
	for _, elt := range cl.Elts {
		if l, ok := lintutil.ConstString(pass.TypesInfo, elt); ok {
			checkLabel(pass, elt.Pos(), l)
		}
	}
}

func checkLabel(pass *analysis.Pass, pos token.Pos, label string) {
	if !labelAllowlist[label] {
		pass.Reportf(pos, "metric label %q is not in the fixed label set (op, kind, action, store, addr, change, node, result, edge): reusing an existing label keeps dashboards joinable", label)
	}
}

func checkName(pass *analysis.Pass, pos token.Pos, name, kind string) {
	if !nameRe.MatchString(name) {
		pass.Reportf(pos, "metric name %q is not snake_case (^[a-z][a-z0-9_]*$)", name)
		return
	}
	if strings.Contains(name, "__") || strings.HasSuffix(name, "_") {
		pass.Reportf(pos, "metric name %q has empty name segments (doubled or trailing underscore)", name)
		return
	}
	if !strings.HasPrefix(name, "freshcache_") {
		pass.Reportf(pos, "metric name %q lacks the freshcache_ namespace prefix", name)
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			pass.Reportf(pos, "metric name %q ends with reserved suffix %s (histogram exposition appends it)", name, suf)
			return
		}
	}
	for _, suf := range []string{"_ms", "_us", "_ns", "_millis", "_micros", "_nanos"} {
		if strings.HasSuffix(name, suf) {
			pass.Reportf(pos, "metric name %q uses a non-base unit: durations are exposed in seconds (_seconds)", name)
			return
		}
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "counter %q must end in _total", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "gauge %q must not end in _total (that suffix marks counters)", name)
		}
	case "histogram":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "histogram %q must not end in _total (that suffix marks counters)", name)
			return
		}
		okUnit := false
		for _, suf := range histogramUnits {
			if strings.HasSuffix(name, suf) {
				okUnit = true
				break
			}
		}
		if !okUnit {
			pass.Reportf(pos, "histogram %q must carry a unit suffix (_seconds, _bytes, _ratio, or _size)", name)
		}
	}
}
