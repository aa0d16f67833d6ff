package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// ctxpropPass enforces deadline propagation on the serving path: any
// function reachable (via the call graph) from an HTTP handler must reach
// the pricing kernels through their context-taking variants, so a
// request's deadline cancels kernel work instead of orphaning it. The
// plain entry points (finbench.Price, PriceBatch, the path simulators)
// never observe a context; a handler-reachable call to one is a request
// that keeps computing after its client has given up — exactly the
// admission-control leak the serving tier's load shedding exists to
// prevent.
//
// The entry-point table lives in entrypoints.go, shared with rngshare.
// Callers inside the root finbench package itself are exempt: it is the
// API boundary that defines the entry points, and each plain entry point
// there is a single call of its *Ctx form with context.Background(), so
// the pass reports the plain wrapper at its call sites outside the
// package.
func ctxpropPass() *Pass {
	return &Pass{
		Name:   "ctxprop",
		Doc:    "deadline-blind kernel entry point reachable from an HTTP handler (use the *Ctx variant)",
		RunMod: runCtxProp,
	}
}

func runCtxProp(m *Module, p *Package, report func(pos token.Pos, msg string)) {
	if p.Path == rootPkgPath {
		return
	}
	reach := m.HandlerReach()
	for _, caller := range sortedFuncNames(m.Graph, p) {
		if !reach.Contains(caller) {
			continue
		}
		edges := m.Graph.Edges[caller]
		for _, callee := range sortedEdgeKeys(edges) {
			ctxVariant, isEntry := kernelEntryCtx[callee]
			if !isEntry {
				continue
			}
			fix := fmt.Sprintf("call %s so the request deadline propagates into the kernel", ctxVariant)
			if ctxVariant == "" {
				fix = "it has no cancellable variant and must not run on the request path"
			}
			for _, pos := range edges[callee] {
				report(pos, fmt.Sprintf(
					"%s is deadline-blind but reachable from an HTTP handler (%s): %s",
					callee, pathLabel(reach.Path(caller)), fix))
			}
		}
	}
}

// sortedFuncNames lists the graph functions declared in p, sorted for
// deterministic reporting.
func sortedFuncNames(g *CallGraph, p *Package) []string {
	var names []string
	for name, fi := range g.Funcs {
		if fi.Pkg == p {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
