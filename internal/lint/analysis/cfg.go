package analysis

// cfg.go builds intra-procedural control-flow graphs over the AST,
// mirroring the shape of golang.org/x/tools/go/cfg on the standard
// library alone. A CFG decomposes one function (or function literal)
// body into basic blocks connected by Succs edges; statements and the
// expressions that steer control (if/for/switch conditions, case
// expressions) appear as Nodes in execution order. The reaching-
// definitions analysis (dataflow.go) runs on this graph.
//
// Simplifications relative to a whole-program CFG, all conservative for
// the analyses in this repository:
//
//   - panic(...) statements terminate their block with no successors
//     (like return); other calls are assumed to return.
//   - defer statements appear as ordinary nodes where they execute;
//     analyzers that care about function exit scan for them explicitly.
//   - select with no default keeps only its comm clauses as successors
//     (it blocks until one is ready).

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// CFG is the control-flow graph of one function body. Blocks[0] is the
// entry block. Blocks with no successors end in a return, a panic, or
// the implicit return at the end of the body.
type CFG struct {
	Blocks []*Block
}

// Block is one basic block: a maximal sequence of nodes with a single
// entry and exit. Nodes holds statements and control-steering
// expressions in execution order.
type Block struct {
	Index int
	Kind  string
	Nodes []ast.Node
	Succs []*Block

	reachable bool
}

// NewCFG builds the control-flow graph of body. It works for both
// function declarations and function literals.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &builder{cfg: &CFG{}, labels: make(map[string]*lblock)}
	entry := b.newBlock("entry")
	entry.reachable = true
	b.current = entry
	b.stmtList(body.List)
	return b.cfg
}

// Preds returns the predecessor lists of every block, indexed like
// Blocks. Dataflow solvers use it to iterate backwards edges.
func (c *CFG) Preds() [][]*Block {
	preds := make([][]*Block, len(c.Blocks))
	for _, blk := range c.Blocks {
		for _, s := range blk.Succs {
			preds[s.Index] = append(preds[s.Index], blk)
		}
	}
	return preds
}

// Format renders the graph for tests and debugging: one section per
// block with its kind, nodes (as source text) and successor indices.
func (c *CFG) Format(fset *token.FileSet) string {
	var buf bytes.Buffer
	for _, blk := range c.Blocks {
		fmt.Fprintf(&buf, "%d: %s\n", blk.Index, blk.Kind)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&buf, "\t%s\n", nodeText(fset, n))
		}
		if len(blk.Succs) > 0 {
			ids := make([]string, len(blk.Succs))
			for i, s := range blk.Succs {
				ids[i] = fmt.Sprint(s.Index)
			}
			fmt.Fprintf(&buf, "\t-> %s\n", strings.Join(ids, " "))
		}
	}
	return buf.String()
}

// nodeText renders n as single-line source text.
func nodeText(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}

// lblock records the blocks a label can transfer control to: its goto
// target, and — when it labels a loop/switch/select — the break and
// continue targets.
type lblock struct {
	gotoTarget     *Block
	breakTarget    *Block
	continueTarget *Block
}

// targets is one frame of the enclosing breakable/continuable construct
// stack.
type targets struct {
	tail           *targets
	breakTarget    *Block
	continueTarget *Block
}

type builder struct {
	cfg     *CFG
	current *Block // nil while the point is unreachable
	targets *targets
	labels  map[string]*lblock
	// label, when non-nil, is the pending lblock of a LabeledStmt whose
	// labeled construct is about to be built; the construct fills in its
	// break/continue targets.
	label *lblock
	// fallthroughTo is the next case body of the switch being built.
	fallthroughTo *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// add appends n to the current block, materializing an unreachable
// block when control cannot reach this point (dead code is still given
// a home so analyzers see every node).
func (b *builder) add(n ast.Node) {
	if b.current == nil {
		b.current = b.newBlock("unreachable")
	}
	b.current.Nodes = append(b.current.Nodes, n)
}

// edge adds a control edge current→to without ending the block.
func (b *builder) edge(to *Block) {
	if b.current == nil {
		return
	}
	b.current.Succs = append(b.current.Succs, to)
	if b.current.reachable {
		to.reachable = true
	}
}

// jump ends the current block with a single edge to to.
func (b *builder) jump(to *Block) {
	b.edge(to)
	b.current = nil
}

// start makes blk the current block.
func (b *builder) start(blk *Block) { b.current = blk }

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label of an enclosing LabeledStmt so
// the construct being built can register its break/continue targets.
func (b *builder) takeLabel() *lblock {
	lb := b.label
	b.label = nil
	return lb
}

func (b *builder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil, *ast.EmptyStmt:

	case *ast.LabeledStmt:
		lb := b.labelOf(st.Label.Name)
		b.jump(lb.gotoTarget)
		b.start(lb.gotoTarget)
		b.label = lb
		b.stmt(st.Stmt)
		b.label = nil

	case *ast.BlockStmt:
		b.stmtList(st.List)

	case *ast.IfStmt:
		if st.Init != nil {
			b.stmt(st.Init)
		}
		b.add(st.Cond)
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		elseBlk := done
		if st.Else != nil {
			elseBlk = b.newBlock("if.else")
		}
		b.edge(then)
		b.edge(elseBlk)
		b.current = nil

		b.start(then)
		b.stmtList(st.Body.List)
		b.jump(done)
		if st.Else != nil {
			b.start(elseBlk)
			b.stmt(st.Else)
			b.jump(done)
		}
		b.start(done)

	case *ast.ForStmt:
		lb := b.takeLabel()
		if st.Init != nil {
			b.stmt(st.Init)
		}
		loop := b.newBlock("for.loop")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		cont := loop
		var post *Block
		if st.Post != nil {
			post = b.newBlock("for.post")
			cont = post
		}
		if lb != nil {
			lb.breakTarget = done
			lb.continueTarget = cont
		}
		b.jump(loop)
		b.start(loop)
		if st.Cond != nil {
			b.add(st.Cond)
			b.edge(body)
			b.edge(done)
			b.current = nil
		} else {
			b.jump(body)
		}
		b.start(body)
		b.targets = &targets{tail: b.targets, breakTarget: done, continueTarget: cont}
		b.stmtList(st.Body.List)
		b.targets = b.targets.tail
		b.jump(cont)
		if post != nil {
			b.start(post)
			b.stmt(st.Post)
			b.jump(loop)
		}
		b.start(done)

	case *ast.RangeStmt:
		lb := b.takeLabel()
		b.add(st.X)
		loop := b.newBlock("range.loop")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		if lb != nil {
			lb.breakTarget = done
			lb.continueTarget = loop
		}
		b.jump(loop)
		b.start(loop)
		// The RangeStmt node itself carries the per-iteration Key/Value
		// definitions for dataflow.
		b.add(st)
		b.edge(body)
		b.edge(done)
		b.current = nil
		b.start(body)
		b.targets = &targets{tail: b.targets, breakTarget: done, continueTarget: loop}
		b.stmtList(st.Body.List)
		b.targets = b.targets.tail
		b.jump(loop)
		b.start(done)

	case *ast.SwitchStmt:
		lb := b.takeLabel()
		if st.Init != nil {
			b.stmt(st.Init)
		}
		if st.Tag != nil {
			b.add(st.Tag)
		}
		b.switchBody(lb, st.Body, nil)

	case *ast.TypeSwitchStmt:
		lb := b.takeLabel()
		if st.Init != nil {
			b.stmt(st.Init)
		}
		b.switchBody(lb, st.Body, st.Assign)

	case *ast.SelectStmt:
		lb := b.takeLabel()
		done := b.newBlock("select.done")
		if lb != nil {
			lb.breakTarget = done
		}
		var bodies []*Block
		var clauses []*ast.CommClause
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			clauses = append(clauses, cc)
			bodies = append(bodies, b.newBlock("select.body"))
		}
		for _, blk := range bodies {
			b.edge(blk)
		}
		b.current = nil
		for i, cc := range clauses {
			b.start(bodies[i])
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.targets = &targets{tail: b.targets, breakTarget: done, continueTarget: b.continueTargetOf()}
			b.stmtList(cc.Body)
			b.targets = b.targets.tail
			b.jump(done)
		}
		b.start(done)

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if st.Label != nil {
				if lb := b.labelOf(st.Label.Name); lb.breakTarget != nil {
					b.jump(lb.breakTarget)
				} else {
					b.current = nil
				}
			} else if t := b.breakTargetOf(); t != nil {
				b.jump(t)
			} else {
				b.current = nil
			}
		case token.CONTINUE:
			if st.Label != nil {
				if lb := b.labelOf(st.Label.Name); lb.continueTarget != nil {
					b.jump(lb.continueTarget)
				} else {
					b.current = nil
				}
			} else if t := b.continueTargetOf(); t != nil {
				b.jump(t)
			} else {
				b.current = nil
			}
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.jump(b.fallthroughTo)
			} else {
				b.current = nil
			}
		case token.GOTO:
			b.jump(b.labelOf(st.Label.Name).gotoTarget)
		}

	case *ast.ReturnStmt:
		b.add(st)
		b.current = nil

	case *ast.ExprStmt:
		b.add(st)
		if isPanic(st.X) {
			b.current = nil
		}

	default:
		// Assignments, declarations, go/defer/send/incdec statements are
		// straight-line nodes.
		b.add(s)
	}
}

// switchBody builds the shared case-dispatch shape of switch and type
// switch. assign, for type switches, is the `x := y.(type)` statement
// placed at the head of every case body so its definition is visible
// there.
func (b *builder) switchBody(lb *lblock, body *ast.BlockStmt, assign ast.Stmt) {
	done := b.newBlock("switch.done")
	if lb != nil {
		lb.breakTarget = done
	}
	var bodies []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		clauses = append(clauses, cc)
		bodies = append(bodies, b.newBlock("switch.body"))
		if cc.List == nil {
			hasDefault = true
		}
	}
	for _, blk := range bodies {
		b.edge(blk)
	}
	if !hasDefault {
		b.edge(done)
	}
	b.current = nil
	for i, cc := range clauses {
		b.start(bodies[i])
		if assign != nil {
			b.add(assign)
		}
		for _, e := range cc.List {
			b.add(e)
		}
		savedFT := b.fallthroughTo
		if i+1 < len(bodies) {
			b.fallthroughTo = bodies[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.targets = &targets{tail: b.targets, breakTarget: done, continueTarget: b.continueTargetOf()}
		b.stmtList(cc.Body)
		b.targets = b.targets.tail
		b.fallthroughTo = savedFT
		b.jump(done)
	}
	b.start(done)
}

func (b *builder) labelOf(name string) *lblock {
	lb := b.labels[name]
	if lb == nil {
		lb = &lblock{gotoTarget: b.newBlock("label." + name)}
		b.labels[name] = lb
	}
	return lb
}

func (b *builder) breakTargetOf() *Block {
	if b.targets == nil {
		return nil
	}
	return b.targets.breakTarget
}

func (b *builder) continueTargetOf() *Block {
	if b.targets == nil {
		return nil
	}
	return b.targets.continueTarget
}

// isPanic reports whether e is a call to the predeclared panic.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
