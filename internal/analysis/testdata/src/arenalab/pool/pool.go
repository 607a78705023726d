// Package pool is the testdata stand-in for provision.Workspace: a
// free-list arena whose acquire/release pair is declared via lint
// directives. arenalab (the consuming package) exercises arenapair
// across this package boundary — the acquire facts must travel
// through the facts layer, not the AST.
package pool

// Router is the pooled resource.
type Router struct {
	Resid []float64
}

// Workspace hands out Routers from a free list.
type Workspace struct {
	free []*Router
}

// Acquire pops a Router from the free list.
//
//lint:acquire arena
func (ws *Workspace) Acquire() *Router {
	if n := len(ws.free); n > 0 {
		rt := ws.free[n-1]
		ws.free = ws.free[:n-1]
		return rt
	}
	return &Router{Resid: make([]float64, 16)}
}

// Release returns a Router to the free list.
//
//lint:release arena
func (ws *Workspace) Release(rt *Router) {
	ws.free = append(ws.free, rt)
}

// Routing is a second pooled resource, of its own kind: the stand-in
// for provision.Routing, which a Workspace recycles beside its arenas.
type Routing struct {
	Lists [][]int
}

// Route routes into a Routing taken from the pool, which only the
// routings that never leave the package go back to.
//
//lint:acquire routing
func (ws *Workspace) Route() *Routing { return &Routing{} }

// GiveRouting returns a Routing nothing refers to any more.
//
//lint:release routing
func (ws *Workspace) GiveRouting(r *Routing) {}
