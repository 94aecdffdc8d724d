package analysis

// dataflow.go is the dataflow half of the framework: an iterative
// forward bit-vector solver over the CFG (cfg.go) and its one instance,
// reaching definitions, through which rngstream traces RNG aliases.

import (
	"go/ast"
	"go/types"
)

// BitSet is a fixed-size bit vector; the solver's lattice element.
type BitSet struct {
	words []uint64
}

// NewBitSet returns an empty set over a domain of n bits.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64)}
}

// Set adds bit i.
func (s *BitSet) Set(i int) { s.words[i/64] |= 1 << (i % 64) }

// Clear removes bit i.
func (s *BitSet) Clear(i int) { s.words[i/64] &^= 1 << (i % 64) }

// Has reports whether bit i is present.
func (s *BitSet) Has(i int) bool { return s.words[i/64]&(1<<(i%64)) != 0 }

// Copy returns an independent copy of s.
func (s *BitSet) Copy() *BitSet {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &BitSet{words: w}
}

// UnionWith adds every bit of t to s and reports whether s changed.
func (s *BitSet) UnionWith(t *BitSet) bool {
	changed := false
	for i, w := range t.words {
		if nw := s.words[i] | w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Equal reports whether s and t hold the same bits.
func (s *BitSet) Equal(t *BitSet) bool {
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// FlowProblem is one forward bit-vector dataflow analysis over a CFG.
// The solver iterates Transfer to a fixed point; with a monotone
// Transfer over the finite BitSet lattice, termination is guaranteed.
type FlowProblem struct {
	CFG *CFG
	// NBits is the domain size.
	NBits int
	// Transfer computes a block's output set from its input set. It must
	// not retain or mutate in.
	Transfer func(b *Block, in *BitSet) *BitSet
	// Boundary seeds the entry block; nil means empty.
	Boundary *BitSet
}

// Solve runs the analysis to a fixed point and returns the input and
// output set of every block, indexed by Block.Index; in[b] is the meet
// (union) over b's predecessors.
func (p *FlowProblem) Solve() (in, out []*BitSet) {
	n := len(p.CFG.Blocks)
	in = make([]*BitSet, n)
	out = make([]*BitSet, n)
	for i := 0; i < n; i++ {
		in[i] = NewBitSet(p.NBits)
		out[i] = NewBitSet(p.NBits)
	}
	preds := p.CFG.Preds()
	for changed := true; changed; {
		changed = false
		for _, b := range p.CFG.Blocks {
			next := NewBitSet(p.NBits)
			if b.Index == 0 && p.Boundary != nil {
				next.UnionWith(p.Boundary)
			}
			for _, src := range preds[b.Index] {
				next.UnionWith(out[src.Index])
			}
			in[b.Index] = next
			newOut := p.Transfer(b, next)
			if !newOut.Equal(out[b.Index]) {
				out[b.Index] = newOut
				changed = true
			}
		}
	}
	return in, out
}

// A Def is one definition site of a variable: an assignment, a short
// variable declaration, a var spec, an inc/dec, a range key/value
// binding, or a function parameter (Node is then the parameter ident).
type Def struct {
	Obj  types.Object
	Node ast.Node
}

// ReachDefs is the reaching-definitions analysis of one function body:
// which definitions of each variable may reach each use.
type ReachDefs struct {
	cfg  *CFG
	info *types.Info
	Defs []Def
	// defBits groups def indices by object.
	defBits map[types.Object][]int
	// nodeDefs caches the def indices generated by each CFG node.
	nodeDefs map[ast.Node][]int
	in       []*BitSet
}

// NewReachingDefs computes reaching definitions over c. params lists
// the function's parameter/receiver idents, which act as definitions
// at function entry.
func NewReachingDefs(c *CFG, info *types.Info, params []*ast.Ident) *ReachDefs {
	r := &ReachDefs{
		cfg:      c,
		info:     info,
		defBits:  make(map[types.Object][]int),
		nodeDefs: make(map[ast.Node][]int),
	}
	addDef := func(n ast.Node, id *ast.Ident) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || id.Name == "_" {
			return
		}
		if _, ok := obj.(*types.Var); !ok {
			return
		}
		idx := len(r.Defs)
		r.Defs = append(r.Defs, Def{Obj: obj, Node: n})
		r.defBits[obj] = append(r.defBits[obj], idx)
		r.nodeDefs[n] = append(r.nodeDefs[n], idx)
	}

	var paramIdx []int
	for _, p := range params {
		idx := len(r.Defs)
		addDef(p, p)
		if len(r.Defs) > idx {
			paramIdx = append(paramIdx, idx)
		}
	}
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			for _, id := range definedIdents(n) {
				addDef(n, id)
			}
		}
	}

	nbits := len(r.Defs)
	entry := NewBitSet(nbits)
	for _, i := range paramIdx {
		entry.Set(i)
	}
	problem := &FlowProblem{
		CFG:      c,
		NBits:    nbits,
		Boundary: entry,
		Transfer: func(b *Block, in *BitSet) *BitSet {
			out := in.Copy()
			for _, n := range b.Nodes {
				r.applyNode(out, n)
			}
			return out
		},
	}
	r.in, _ = problem.Solve()
	return r
}

// applyNode kills the previous defs of every variable n defines and
// gens n's own defs.
func (r *ReachDefs) applyNode(set *BitSet, n ast.Node) {
	for _, idx := range r.nodeDefs[n] {
		for _, other := range r.defBits[r.Defs[idx].Obj] {
			set.Clear(other)
		}
	}
	for _, idx := range r.nodeDefs[n] {
		set.Set(idx)
	}
}

// At returns the definitions of use's object that may reach use. A nil
// result means the object has no tracked definition (e.g. it is defined
// outside this CFG — a captured variable or package-level state).
func (r *ReachDefs) At(use *ast.Ident) []Def {
	obj := r.info.Uses[use]
	if obj == nil {
		return nil
	}
	bits := r.defBits[obj]
	if len(bits) == 0 {
		return nil
	}
	// Locate the node containing the use and replay the block prefix.
	for _, b := range r.cfg.Blocks {
		for ni, n := range b.Nodes {
			if n.Pos() > use.Pos() || use.End() > n.End() {
				continue
			}
			state := r.in[b.Index].Copy()
			for _, prev := range b.Nodes[:ni] {
				r.applyNode(state, prev)
			}
			// Within the containing node the use is evaluated before the
			// node's own definitions take effect (RHS before LHS), except
			// when the use ident IS a def of a compound assignment or
			// inc/dec, which reads the old value too.
			var defs []Def
			for _, idx := range bits {
				if state.Has(idx) {
					defs = append(defs, r.Defs[idx])
				}
			}
			return defs
		}
	}
	return nil
}

// definedIdents returns the variable idents that node n (re)defines.
func definedIdents(n ast.Node) []*ast.Ident {
	var out []*ast.Ident
	switch st := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				out = append(out, id)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := st.X.(*ast.Ident); ok {
			out = append(out, id)
		}
	case *ast.RangeStmt:
		if id, ok := st.Key.(*ast.Ident); ok {
			out = append(out, id)
		}
		if id, ok := st.Value.(*ast.Ident); ok {
			out = append(out, id)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					out = append(out, vs.Names...)
				}
			}
		}
	}
	return out
}
