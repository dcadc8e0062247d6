package ppc

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/ir"
)

// Compile parses src and lowers its pps declaration to an IR program whose
// function body is one iteration of the PPS loop. User functions are fully
// inlined (the paper's PPSes are whole programs; partitioning needs a single
// flat body).
func Compile(src string) (*ir.Program, error) {
	unit, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(unit)
}

// MustCompile is Compile for known-good embedded sources; it panics on error.
func MustCompile(src string) *ir.Program {
	p, err := Compile(src)
	if err != nil {
		panic("ppc.MustCompile: " + err.Error())
	}
	return p
}

// Lower translates a parsed unit into IR.
func Lower(unit *Unit) (*ir.Program, error) {
	lo := &lowerer{
		unit:   unit,
		consts: make(map[string]int64),
		funcs:  make(map[string]*FuncDecl),
	}
	return lo.lowerUnit()
}

// symbol is a resolved name.
type symbol struct {
	kind  symKind
	reg   int       // symScalar
	arr   *ir.Array // symArray, symPScalar
	val   int64     // symConst
	param bool      // read-only (inlined function parameter)
}

type symKind uint8

const (
	symScalar  symKind = iota // mutable local scalar (a register)
	symPScalar                // persistent scalar (one-element array)
	symArray                  // array (local or persistent)
	symConst                  // compile-time constant
)

// scope is one lexical scope level. barrier marks a function-inlining
// boundary: lookups do not cross it except into the global scope.
type scope struct {
	syms    map[string]*symbol
	barrier bool
}

type retTarget struct {
	join   *ir.Block
	result int
}

type loopTarget struct {
	brk  *ir.Block // nil at PPS-loop level (break illegal)
	cont *ir.Block // nil at PPS-loop level (continue = ret)
}

type lowerer struct {
	unit   *Unit
	consts map[string]int64
	funcs  map[string]*FuncDecl

	prog   *ir.Program
	f      *ir.Func
	bl     *ir.Builder
	scopes []*scope
	loops  []loopTarget
	rets   []retTarget
	inline []string // function-inlining stack for recursion detection
	nArr   int
}

func (lo *lowerer) lowerUnit() (*ir.Program, error) {
	for _, c := range lo.unit.Consts {
		if _, dup := lo.consts[c.Name]; dup {
			return nil, errf(c.Pos, "duplicate const %s", c.Name)
		}
		v, err := lo.evalConst(c.Expr)
		if err != nil {
			return nil, err
		}
		lo.consts[c.Name] = v
	}
	for _, fd := range lo.unit.Funcs {
		if _, dup := lo.funcs[fd.Name]; dup {
			return nil, errf(fd.Pos, "duplicate func %s", fd.Name)
		}
		lo.funcs[fd.Name] = fd
	}

	pps := lo.unit.PPS
	lo.prog = &ir.Program{Name: pps.Name}
	lo.f = ir.NewFunc(pps.Name)
	lo.prog.Func = lo.f
	lo.bl = ir.NewBuilder(lo.f)

	// Global scope: consts are visible everywhere.
	global := &scope{syms: make(map[string]*symbol)}
	for name, v := range lo.consts {
		global.syms[name] = &symbol{kind: symConst, val: v}
	}
	lo.scopes = []*scope{global}

	// PPS-level declarations.
	lo.push(false)
	for _, d := range pps.Decls {
		if err := lo.declare(d); err != nil {
			return nil, err
		}
	}

	// The PPS loop body. continue ends the iteration.
	lo.loops = append(lo.loops, loopTarget{})
	if err := lo.stmt(pps.Loop); err != nil {
		return nil, err
	}
	lo.loops = lo.loops[:len(lo.loops)-1]
	if lo.bl.Cur.Term() == nil {
		lo.bl.Ret()
	}
	// Terminate any dangling unreachable continuation blocks.
	for _, b := range lo.f.Blocks {
		if b.Term() == nil {
			lo.bl.SetBlock(b)
			lo.bl.Ret()
		}
	}
	if err := lo.f.Verify(ir.VerifyMutable); err != nil {
		return nil, fmt.Errorf("internal error: lowered IR invalid: %w", err)
	}
	return lo.prog, nil
}

func (lo *lowerer) push(barrier bool) {
	lo.scopes = append(lo.scopes, &scope{syms: make(map[string]*symbol), barrier: barrier})
}

func (lo *lowerer) pop() { lo.scopes = lo.scopes[:len(lo.scopes)-1] }

func (lo *lowerer) lookup(name string) *symbol {
	for i := len(lo.scopes) - 1; i >= 1; i-- {
		s := lo.scopes[i]
		if sym, ok := s.syms[name]; ok {
			return sym
		}
		if s.barrier {
			break
		}
	}
	if sym, ok := lo.scopes[0].syms[name]; ok {
		return sym
	}
	return nil
}

func (lo *lowerer) define(pos Pos, name string, sym *symbol) error {
	top := lo.scopes[len(lo.scopes)-1]
	if _, dup := top.syms[name]; dup {
		return errf(pos, "duplicate declaration of %s in this scope", name)
	}
	top.syms[name] = sym
	return nil
}

// newArray registers an array with the program, uniquifying the name.
func (lo *lowerer) newArray(name string, size int, persistent bool, init []int64) *ir.Array {
	unique := name
	if lo.prog.ArrayByName(unique) != nil {
		unique = fmt.Sprintf("%s#%d", name, lo.nArr)
	}
	lo.nArr++
	a := &ir.Array{ID: len(lo.prog.Arrays), Name: unique, Size: size, Persistent: persistent, Init: init}
	lo.prog.Arrays = append(lo.prog.Arrays, a)
	return a
}

// declare lowers a variable declaration in the current scope.
func (lo *lowerer) declare(d *VarDecl) error {
	if d.ArraySize >= 0 {
		if d.Init != nil {
			return errf(d.Pos, "array %s cannot have an initializer", d.Name)
		}
		arr := lo.newArray(d.Name, d.ArraySize, d.Persistent, nil)
		return lo.define(d.Pos, d.Name, &symbol{kind: symArray, arr: arr})
	}
	if d.Persistent {
		var init []int64
		if d.Init != nil {
			v, err := lo.evalConst(d.Init)
			if err != nil {
				return errf(d.Pos, "persistent %s: initializer must be constant", d.Name)
			}
			init = []int64{v}
		}
		arr := lo.newArray(d.Name, 1, true, init)
		return lo.define(d.Pos, d.Name, &symbol{kind: symPScalar, arr: arr})
	}
	reg := lo.f.NamedReg(d.Name)
	if d.Init != nil {
		v, err := lo.expr(d.Init)
		if err != nil {
			return err
		}
		lo.bl.CopyTo(reg, v)
	} else {
		lo.bl.ConstTo(reg, 0)
	}
	return lo.define(d.Pos, d.Name, &symbol{kind: symScalar, reg: reg})
}

// stmt lowers one statement.
func (lo *lowerer) stmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		lo.push(false)
		defer lo.pop()
		for _, inner := range st.Stmts {
			if err := lo.stmt(inner); err != nil {
				return err
			}
			if lo.bl.Cur.Term() != nil {
				// Statement ended the block (continue/break/return).
				// Remaining statements are unreachable; lower them into a
				// fresh dead block to keep diagnostics working.
				dead := lo.f.NewBlock("dead")
				lo.bl.SetBlock(dead)
			}
		}
		return nil

	case *DeclStmt:
		return lo.declare(st.Decl)

	case *AssignStmt:
		return lo.assign(st)

	case *ExprStmt:
		_, err := lo.exprAllowVoid(st.X)
		return err

	case *IfStmt:
		cond, err := lo.expr(st.Cond)
		if err != nil {
			return err
		}
		thenB := lo.f.NewBlock("then")
		joinB := lo.f.NewBlock("join")
		elseB := joinB
		if st.Else != nil {
			elseB = lo.f.NewBlock("else")
		}
		lo.bl.Br(cond, thenB, elseB)
		lo.bl.SetBlock(thenB)
		if err := lo.stmt(st.Then); err != nil {
			return err
		}
		if lo.bl.Cur.Term() == nil {
			lo.bl.Jmp(joinB)
		}
		if st.Else != nil {
			lo.bl.SetBlock(elseB)
			if err := lo.stmt(st.Else); err != nil {
				return err
			}
			if lo.bl.Cur.Term() == nil {
				lo.bl.Jmp(joinB)
			}
		}
		lo.bl.SetBlock(joinB)
		return nil

	case *WhileStmt:
		header := lo.f.NewBlock("while.head")
		header.LoopBound = st.Bound
		body := lo.f.NewBlock("while.body")
		exit := lo.f.NewBlock("while.exit")
		lo.bl.Jmp(header)
		lo.bl.SetBlock(header)
		cond, err := lo.expr(st.Cond)
		if err != nil {
			return err
		}
		lo.bl.Br(cond, body, exit)
		lo.bl.SetBlock(body)
		lo.loops = append(lo.loops, loopTarget{brk: exit, cont: header})
		err = lo.stmt(st.Body)
		lo.loops = lo.loops[:len(lo.loops)-1]
		if err != nil {
			return err
		}
		if lo.bl.Cur.Term() == nil {
			lo.bl.Jmp(header)
		}
		lo.bl.SetBlock(exit)
		return nil

	case *DoStmt:
		body := lo.f.NewBlock("do.body")
		body.LoopBound = st.Bound
		condB := lo.f.NewBlock("do.cond")
		exit := lo.f.NewBlock("do.exit")
		lo.bl.Jmp(body)
		lo.bl.SetBlock(body)
		lo.loops = append(lo.loops, loopTarget{brk: exit, cont: condB})
		err := lo.stmt(st.Body)
		lo.loops = lo.loops[:len(lo.loops)-1]
		if err != nil {
			return err
		}
		if lo.bl.Cur.Term() == nil {
			lo.bl.Jmp(condB)
		}
		lo.bl.SetBlock(condB)
		cond, err := lo.expr(st.Cond)
		if err != nil {
			return err
		}
		lo.bl.Br(cond, body, exit)
		lo.bl.SetBlock(exit)
		return nil

	case *ForStmt:
		lo.push(false)
		defer lo.pop()
		if st.Init != nil {
			if err := lo.stmt(st.Init); err != nil {
				return err
			}
		}
		header := lo.f.NewBlock("for.head")
		header.LoopBound = st.Bound
		body := lo.f.NewBlock("for.body")
		post := lo.f.NewBlock("for.post")
		exit := lo.f.NewBlock("for.exit")
		lo.bl.Jmp(header)
		lo.bl.SetBlock(header)
		if st.Cond != nil {
			cond, err := lo.expr(st.Cond)
			if err != nil {
				return err
			}
			lo.bl.Br(cond, body, exit)
		} else {
			return errf(st.Pos, "for loop needs a condition (PPC inner loops must terminate)")
		}
		lo.bl.SetBlock(body)
		lo.loops = append(lo.loops, loopTarget{brk: exit, cont: post})
		err := lo.stmt(st.Body)
		lo.loops = lo.loops[:len(lo.loops)-1]
		if err != nil {
			return err
		}
		if lo.bl.Cur.Term() == nil {
			lo.bl.Jmp(post)
		}
		lo.bl.SetBlock(post)
		if st.Post != nil {
			if err := lo.stmt(st.Post); err != nil {
				return err
			}
		}
		lo.bl.Jmp(header)
		lo.bl.SetBlock(exit)
		return nil

	case *SwitchStmt:
		return lo.switchStmt(st)

	case *BreakStmt:
		top := lo.loops[len(lo.loops)-1]
		if top.brk == nil {
			return errf(st.Pos, "break outside an inner loop (the PPS loop cannot be exited)")
		}
		lo.bl.Jmp(top.brk)
		return nil

	case *ContinueStmt:
		top := lo.loops[len(lo.loops)-1]
		if top.cont == nil {
			lo.bl.Ret() // PPS-loop level: end this iteration
			return nil
		}
		lo.bl.Jmp(top.cont)
		return nil

	case *ReturnStmt:
		if len(lo.rets) == 0 {
			return errf(st.Pos, "return outside a function (use continue to end the iteration)")
		}
		rt := lo.rets[len(lo.rets)-1]
		var v int
		if st.X != nil {
			var err error
			v, err = lo.expr(st.X)
			if err != nil {
				return err
			}
		} else {
			v = lo.bl.Const(0)
		}
		lo.bl.CopyTo(rt.result, v)
		lo.bl.Jmp(rt.join)
		return nil

	default:
		return fmt.Errorf("internal error: unknown statement %T", s)
	}
}

func (lo *lowerer) assign(st *AssignStmt) error {
	sym := lo.lookup(st.Name)
	if sym == nil {
		return errf(st.Pos, "undefined: %s", st.Name)
	}
	switch sym.kind {
	case symConst:
		return errf(st.Pos, "cannot assign to constant %s", st.Name)
	case symScalar:
		if st.Index != nil {
			return errf(st.Pos, "%s is a scalar, not an array", st.Name)
		}
		if sym.param {
			return errf(st.Pos, "cannot assign to parameter %s", st.Name)
		}
		v, err := lo.expr(st.Value)
		if err != nil {
			return err
		}
		lo.bl.CopyTo(sym.reg, v)
		return nil
	case symPScalar:
		if st.Index != nil {
			return errf(st.Pos, "%s is a scalar, not an array", st.Name)
		}
		v, err := lo.expr(st.Value)
		if err != nil {
			return err
		}
		zero := lo.bl.Const(0)
		lo.bl.Store(sym.arr, zero, v)
		return nil
	case symArray:
		if st.Index == nil {
			return errf(st.Pos, "array %s cannot be assigned as a whole", st.Name)
		}
		idx, err := lo.expr(st.Index)
		if err != nil {
			return err
		}
		v, err := lo.expr(st.Value)
		if err != nil {
			return err
		}
		lo.bl.Store(sym.arr, idx, v)
		return nil
	}
	return fmt.Errorf("internal error: bad symbol kind")
}

func (lo *lowerer) switchStmt(st *SwitchStmt) error {
	x, err := lo.expr(st.X)
	if err != nil {
		return err
	}
	join := lo.f.NewBlock("switch.join")
	var cases []int64
	var targets []*ir.Block
	seen := make(map[int64]bool)
	for _, c := range st.Cases {
		v, err := lo.evalConst(c.Value)
		if err != nil {
			return errf(c.Pos, "case value must be a constant expression")
		}
		if seen[v] {
			return errf(c.Pos, "duplicate case value %d", v)
		}
		seen[v] = true
		cases = append(cases, v)
		targets = append(targets, lo.f.NewBlock(fmt.Sprintf("case.%d", v)))
	}
	defaultB := join
	if st.Default != nil {
		defaultB = lo.f.NewBlock("case.default")
	}
	lo.bl.Switch(x, cases, append(targets, defaultB))
	for i, c := range st.Cases {
		lo.bl.SetBlock(targets[i])
		lo.push(false)
		for _, s := range c.Body {
			if err := lo.stmt(s); err != nil {
				lo.pop()
				return err
			}
			if lo.bl.Cur.Term() != nil {
				dead := lo.f.NewBlock("dead")
				lo.bl.SetBlock(dead)
			}
		}
		lo.pop()
		if lo.bl.Cur.Term() == nil {
			lo.bl.Jmp(join)
		}
	}
	if st.Default != nil {
		lo.bl.SetBlock(defaultB)
		lo.push(false)
		for _, s := range st.Default {
			if err := lo.stmt(s); err != nil {
				lo.pop()
				return err
			}
			if lo.bl.Cur.Term() != nil {
				dead := lo.f.NewBlock("dead")
				lo.bl.SetBlock(dead)
			}
		}
		lo.pop()
		if lo.bl.Cur.Term() == nil {
			lo.bl.Jmp(join)
		}
	}
	lo.bl.SetBlock(join)
	return nil
}

// expr lowers an expression that must produce a value.
func (lo *lowerer) expr(e Expr) (int, error) {
	v, err := lo.exprAllowVoid(e)
	if err != nil {
		return 0, err
	}
	if v == ir.NoReg {
		return 0, errf(e.pos(), "expression has no value")
	}
	return v, nil
}

// exprAllowVoid lowers an expression; void intrinsic calls yield ir.NoReg.
func (lo *lowerer) exprAllowVoid(e Expr) (int, error) {
	switch x := e.(type) {
	case *IntLit:
		return lo.bl.Const(x.Val), nil

	case *Ident:
		sym := lo.lookup(x.Name)
		if sym == nil {
			return 0, errf(x.Pos_, "undefined: %s", x.Name)
		}
		switch sym.kind {
		case symConst:
			return lo.bl.Const(sym.val), nil
		case symScalar:
			return sym.reg, nil
		case symPScalar:
			zero := lo.bl.Const(0)
			return lo.bl.Load(sym.arr, zero), nil
		case symArray:
			return 0, errf(x.Pos_, "array %s used as a scalar", x.Name)
		}

	case *IndexExpr:
		sym := lo.lookup(x.Name)
		if sym == nil {
			return 0, errf(x.Pos_, "undefined: %s", x.Name)
		}
		if sym.kind != symArray {
			return 0, errf(x.Pos_, "%s is not an array", x.Name)
		}
		idx, err := lo.expr(x.Index)
		if err != nil {
			return 0, err
		}
		return lo.bl.Load(sym.arr, idx), nil

	case *UnaryExpr:
		v, err := lo.expr(x.X)
		if err != nil {
			return 0, err
		}
		op, ok := unOpMap[x.Op]
		if !ok {
			return 0, errf(x.Pos_, "bad unary operator")
		}
		return lo.bl.Un(op, v), nil

	case *BinaryExpr:
		switch x.Op {
		case AndAnd, OrOr:
			return lo.shortCircuit(x)
		}
		a, err := lo.expr(x.X)
		if err != nil {
			return 0, err
		}
		b, err := lo.expr(x.Y)
		if err != nil {
			return 0, err
		}
		op, ok := binOpMap[x.Op]
		if !ok {
			return 0, errf(x.Pos_, "bad binary operator")
		}
		return lo.bl.Bin(op, a, b), nil

	case *CondExpr:
		cond, err := lo.expr(x.Cond)
		if err != nil {
			return 0, err
		}
		t := lo.f.NewReg()
		thenB := lo.f.NewBlock("cond.then")
		elseB := lo.f.NewBlock("cond.else")
		joinB := lo.f.NewBlock("cond.join")
		lo.bl.Br(cond, thenB, elseB)
		lo.bl.SetBlock(thenB)
		tv, err := lo.expr(x.Then)
		if err != nil {
			return 0, err
		}
		lo.bl.CopyTo(t, tv)
		lo.bl.Jmp(joinB)
		lo.bl.SetBlock(elseB)
		ev, err := lo.expr(x.Else)
		if err != nil {
			return 0, err
		}
		lo.bl.CopyTo(t, ev)
		lo.bl.Jmp(joinB)
		lo.bl.SetBlock(joinB)
		return t, nil

	case *CallExpr:
		return lo.call(x)
	}
	return 0, fmt.Errorf("internal error: unknown expression %T", e)
}

var unOpMap = map[Kind]ir.Op{Minus: ir.OpNeg, Bang: ir.OpNot, Tilde: ir.OpBNot}

var binOpMap = map[Kind]ir.Op{
	Pipe: ir.OpOr, Caret: ir.OpXor, Amp: ir.OpAnd,
	EqEq: ir.OpEq, NotEq: ir.OpNe, Lt: ir.OpLt, Le: ir.OpLe,
	Gt: ir.OpGt, Ge: ir.OpGe, Shl: ir.OpShl, Shr: ir.OpShr,
	Plus: ir.OpAdd, Minus: ir.OpSub, Star: ir.OpMul,
	Slash: ir.OpDiv, Percent: ir.OpMod,
}

func (lo *lowerer) shortCircuit(x *BinaryExpr) (int, error) {
	t := lo.f.NewReg()
	rhsB := lo.f.NewBlock("sc.rhs")
	joinB := lo.f.NewBlock("sc.join")
	a, err := lo.expr(x.X)
	if err != nil {
		return 0, err
	}
	if x.Op == AndAnd {
		lo.bl.ConstTo(t, 0)
		lo.bl.Br(a, rhsB, joinB)
	} else {
		lo.bl.ConstTo(t, 1)
		lo.bl.Br(a, joinB, rhsB)
	}
	lo.bl.SetBlock(rhsB)
	b, err := lo.expr(x.Y)
	if err != nil {
		return 0, err
	}
	zero := lo.bl.Const(0)
	nb := lo.bl.Bin(ir.OpNe, b, zero)
	lo.bl.CopyTo(t, nb)
	lo.bl.Jmp(joinB)
	lo.bl.SetBlock(joinB)
	return t, nil
}

// call lowers an intrinsic call or inlines a user function.
func (lo *lowerer) call(x *CallExpr) (int, error) {
	if intr, ok := costmodel.Intrinsics[x.Name]; ok {
		if len(x.Args) != intr.NArgs {
			return 0, errf(x.Pos_, "%s takes %d arguments, got %d", x.Name, intr.NArgs, len(x.Args))
		}
		args := make([]int, len(x.Args))
		for i, a := range x.Args {
			v, err := lo.expr(a)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		if intr.HasResult {
			return lo.bl.Call(x.Name, args...), nil
		}
		lo.bl.CallVoid(x.Name, args...)
		return ir.NoReg, nil
	}

	fd, ok := lo.funcs[x.Name]
	if !ok {
		return 0, errf(x.Pos_, "undefined function %s", x.Name)
	}
	for _, active := range lo.inline {
		if active == x.Name {
			return 0, errf(x.Pos_, "recursive call to %s (PPC functions must be non-recursive)", x.Name)
		}
	}
	if len(x.Args) != len(fd.Params) {
		return 0, errf(x.Pos_, "%s takes %d arguments, got %d", x.Name, len(fd.Params), len(x.Args))
	}

	// Evaluate arguments in the caller's scope.
	args := make([]int, len(x.Args))
	for i, a := range x.Args {
		v, err := lo.expr(a)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}

	// Inline: fresh scope behind a barrier, parameters bound to copies.
	result := lo.f.NamedReg(x.Name + ".ret")
	join := lo.f.NewBlock(x.Name + ".join")
	lo.push(true)
	for i, pname := range fd.Params {
		preg := lo.f.NamedReg(pname)
		lo.bl.CopyTo(preg, args[i])
		if err := lo.define(fd.Pos, pname, &symbol{kind: symScalar, reg: preg, param: true}); err != nil {
			lo.pop()
			return 0, err
		}
	}
	lo.inline = append(lo.inline, x.Name)
	lo.rets = append(lo.rets, retTarget{join: join, result: result})
	err := lo.stmt(fd.Body)
	lo.rets = lo.rets[:len(lo.rets)-1]
	lo.inline = lo.inline[:len(lo.inline)-1]
	lo.pop()
	if err != nil {
		return 0, err
	}
	if lo.bl.Cur.Term() == nil {
		// Fall off the end: return 0.
		lo.bl.ConstTo(result, 0)
		lo.bl.Jmp(join)
	}
	lo.bl.SetBlock(join)
	return result, nil
}

// evalConst evaluates a compile-time constant expression.
func (lo *lowerer) evalConst(e Expr) (int64, error) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, nil
	case *Ident:
		if v, ok := lo.consts[x.Name]; ok {
			return v, nil
		}
		return 0, errf(x.Pos_, "%s is not a constant", x.Name)
	case *UnaryExpr:
		v, err := lo.evalConst(x.X)
		if err != nil {
			return 0, err
		}
		if op, ok := unOpMap[x.Op]; ok {
			return ir.Eval(op, v, 0), nil
		}
	case *BinaryExpr:
		a, err := lo.evalConst(x.X)
		if err != nil {
			return 0, err
		}
		b, err := lo.evalConst(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case AndAnd:
			return ir.Bool(a != 0 && b != 0), nil
		case OrOr:
			return ir.Bool(a != 0 || b != 0), nil
		}
		if op, ok := binOpMap[x.Op]; ok {
			return ir.Eval(op, a, b), nil
		}
		return 0, errf(x.Pos_, "bad binary operator")
	case *CondExpr:
		c, err := lo.evalConst(x.Cond)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return lo.evalConst(x.Then)
		}
		return lo.evalConst(x.Else)
	}
	return 0, errf(e.pos(), "not a constant expression")
}
