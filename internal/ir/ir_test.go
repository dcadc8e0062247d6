package ir

import (
	"strings"
	"testing"
)

// buildDiamond constructs:
//
//	entry: r0 = const 1; br r0, then, else
//	then:  r1 = const 10; jmp join
//	else:  r2 = const 20; jmp join
//	join:  r3 = phi [then: r1] [else: r2]; ret
func buildDiamond(t *testing.T) *Func {
	t.Helper()
	f := NewFunc("diamond")
	bl := NewBuilder(f)
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	join := f.NewBlock("join")

	c := bl.Const(1)
	bl.Br(c, then, els)

	bl.SetBlock(then)
	r1 := bl.Const(10)
	bl.Jmp(join)

	bl.SetBlock(els)
	r2 := bl.Const(20)
	bl.Jmp(join)

	bl.SetBlock(join)
	phi := &Instr{Op: OpPhi, Dst: f.NewReg(), Args: []int{r1, r2}, PhiPreds: []int{then.ID, els.ID}}
	join.Instrs = append(join.Instrs, phi)
	bl.SetBlock(join)
	bl.Ret()
	return f
}

func TestBuilderAndVerify(t *testing.T) {
	f := buildDiamond(t)
	if err := f.Verify(VerifyMutable); err != nil {
		t.Fatalf("VerifyMutable: %v", err)
	}
	if err := f.Verify(VerifySSA); err != nil {
		t.Fatalf("VerifySSA: %v", err)
	}
}

func TestVerifyCatchesDoubleDef(t *testing.T) {
	f := NewFunc("bad")
	bl := NewBuilder(f)
	r := bl.Const(1)
	// Manually emit a second def of the same register.
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, &Instr{Op: OpConst, Dst: r, Imm: 2})
	bl.Ret()
	if err := f.Verify(VerifySSA); err == nil {
		t.Error("VerifySSA accepted a double definition")
	}
	if err := f.Verify(VerifyMutable); err != nil {
		t.Errorf("VerifyMutable rejected mutable code: %v", err)
	}
}

func TestVerifyCatchesMisplacedTerminator(t *testing.T) {
	f := NewFunc("bad")
	b := f.Blocks[0]
	b.Instrs = []*Instr{
		{Op: OpRet, Dst: NoReg},
		{Op: OpConst, Dst: f.NewReg(), Imm: 1},
	}
	if err := f.Verify(VerifyMutable); err == nil {
		t.Error("verifier accepted instruction after terminator")
	}
}

func TestVerifyCatchesBadTarget(t *testing.T) {
	f := NewFunc("bad")
	b := f.Blocks[0]
	b.Instrs = []*Instr{{Op: OpJmp, Dst: NoReg, Targets: []int{42}}}
	if err := f.Verify(VerifyMutable); err == nil {
		t.Error("verifier accepted a jump to a nonexistent block")
	}
}

func TestVerifyCatchesBadRegister(t *testing.T) {
	f := NewFunc("bad")
	b := f.Blocks[0]
	b.Instrs = []*Instr{
		{Op: OpCopy, Dst: f.NewReg(), Args: []int{99}},
		{Op: OpRet, Dst: NoReg},
	}
	if err := f.Verify(VerifyMutable); err == nil {
		t.Error("verifier accepted use of an unallocated register")
	}
}

func TestVerifyPhiPredMismatch(t *testing.T) {
	f := buildDiamond(t)
	// Corrupt the phi: claim a value flows from the join itself.
	for _, in := range f.Blocks[3].Instrs {
		if in.Op == OpPhi {
			in.PhiPreds[0] = 3
		}
	}
	if err := f.Verify(VerifySSA); err == nil {
		t.Error("VerifySSA accepted phi with non-predecessor source")
	}
}

func TestCFG(t *testing.T) {
	f := buildDiamond(t)
	g := f.CFG()
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || !g.HasEdge(1, 3) || !g.HasEdge(2, 3) {
		t.Error("CFG missing diamond edges")
	}
	if g.HasEdge(3, 0) {
		t.Error("CFG has spurious back edge")
	}
}

func TestCanonicalizeExit(t *testing.T) {
	f := NewFunc("multi")
	bl := NewBuilder(f)
	a := f.NewBlock("a")
	b := f.NewBlock("b")
	c := bl.Const(1)
	bl.Br(c, a, b)
	bl.SetBlock(a)
	bl.Ret()
	bl.SetBlock(b)
	bl.Ret()

	exit := f.CanonicalizeExit()
	if got := len(f.ExitBlocks()); got != 1 {
		t.Fatalf("after canonicalize, %d exit blocks, want 1", got)
	}
	if f.ExitBlocks()[0] != exit {
		t.Errorf("exit ID mismatch: %d vs %d", f.ExitBlocks()[0], exit)
	}
	if err := f.Verify(VerifyMutable); err != nil {
		t.Fatalf("verify after canonicalize: %v", err)
	}
}

func TestCanonicalizeExitIdempotent(t *testing.T) {
	f := buildDiamond(t)
	e1 := f.CanonicalizeExit()
	e2 := f.CanonicalizeExit()
	if e1 != e2 {
		t.Errorf("CanonicalizeExit not idempotent: %d then %d", e1, e2)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := buildDiamond(t)
	c := f.Clone()
	c.Blocks[0].Instrs[0].Imm = 999
	if f.Blocks[0].Instrs[0].Imm == 999 {
		t.Error("Clone shares instruction storage with the original")
	}
	c.Blocks[0].Name = "changed"
	if f.Blocks[0].Name == "changed" {
		t.Error("Clone shares block storage")
	}
}

func TestProgramCloneRemapsArrays(t *testing.T) {
	arr := &Array{ID: 0, Name: "state", Size: 8, Persistent: true}
	f := NewFunc("p")
	bl := NewBuilder(f)
	idx := bl.Const(0)
	v := bl.Load(arr, idx)
	bl.Store(arr, idx, v)
	bl.Ret()
	p := &Program{Name: "prog", Arrays: []*Array{arr}, Func: f}

	c := p.Clone()
	if c.Arrays[0] == arr {
		t.Fatal("Clone did not copy arrays")
	}
	for _, b := range c.Func.Blocks {
		for _, in := range b.Instrs {
			if in.Arr != nil && in.Arr != c.Arrays[0] {
				t.Error("cloned instruction points at original array")
			}
		}
	}
	if p.ArrayByName("state") != arr {
		t.Error("ArrayByName lookup failed")
	}
	if p.ArrayByName("nope") != nil {
		t.Error("ArrayByName found a nonexistent array")
	}
}

func TestPostorder(t *testing.T) {
	f := buildDiamond(t)
	po := f.Postorder()
	if po[0].ID != 3 {
		t.Errorf("postorder starts at b%d, want join b3", po[0].ID)
	}
	if po[len(po)-1].ID != f.Entry {
		t.Error("postorder should end at entry")
	}
}

func TestInstrStringForms(t *testing.T) {
	arr := &Array{Name: "m", Size: 4}
	cases := []struct {
		in   *Instr
		want string
	}{
		{&Instr{Op: OpConst, Dst: 0, Imm: 7}, "r0 = const 7"},
		{&Instr{Op: OpAdd, Dst: 2, Args: []int{0, 1}}, "r2 = add r0, r1"},
		{&Instr{Op: OpLoad, Dst: 1, Args: []int{0}, Arr: arr}, "r1 = load m[r0]"},
		{&Instr{Op: OpStore, Dst: NoReg, Args: []int{0, 1}, Arr: arr}, "store m[r0] = r1"},
		{&Instr{Op: OpBr, Dst: NoReg, Args: []int{0}, Targets: []int{1, 2}}, "br r0, b1, b2"},
		{&Instr{Op: OpRet, Dst: NoReg}, "ret"},
		{&Instr{Op: OpSendLS, Dst: NoReg, Args: []int{3, 4}}, "sendls [r3, r4]"},
		{&Instr{Op: OpRecvLS, Dst: NoReg, Dsts: []int{3, 4}}, "[r3, r4] = recvls"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestFuncStringContainsBlocks(t *testing.T) {
	f := buildDiamond(t)
	s := f.String()
	for _, want := range []string{"func diamond", "b0", "b3", "phi"} {
		if !strings.Contains(s, want) {
			t.Errorf("Func.String() missing %q in:\n%s", want, s)
		}
	}
}

func TestOpProperties(t *testing.T) {
	if !OpBr.IsTerminator() || OpAdd.IsTerminator() {
		t.Error("IsTerminator wrong")
	}
	if !OpAdd.IsBinary() || OpNeg.IsBinary() {
		t.Error("IsBinary wrong")
	}
	if !OpNeg.IsUnary() || OpAdd.IsUnary() {
		t.Error("IsUnary wrong")
	}
	if !OpConst.IsPure() || OpStore.IsPure() || OpCall.IsPure() {
		t.Error("IsPure wrong")
	}
	if !OpLoad.HasDst() || OpStore.HasDst() {
		t.Error("HasDst wrong")
	}
}

func TestDefinesAndUses(t *testing.T) {
	in := &Instr{Op: OpRecvLS, Dst: NoReg, Dsts: []int{5, 6, 7}}
	if got := in.Defines(); len(got) != 3 {
		t.Errorf("RecvLS Defines = %v, want three regs", got)
	}
	call := &Instr{Op: OpCall, Dst: 3, Args: []int{1, 2}, Call: "f"}
	if got := call.Defines(); len(got) != 1 || got[0] != 3 {
		t.Errorf("call Defines = %v, want [3]", got)
	}
	voidCall := &Instr{Op: OpCall, Dst: NoReg, Call: "g"}
	if got := voidCall.Defines(); len(got) != 0 {
		t.Errorf("void call Defines = %v, want empty", got)
	}
}

func TestSetDefVariants(t *testing.T) {
	in := &Instr{Op: OpRecvLS, Dst: NoReg, Dsts: []int{3, 4}}
	in.SetDef(1, 9)
	if in.Dsts[1] != 9 {
		t.Error("SetDef on RecvLS failed")
	}
	add := &Instr{Op: OpAdd, Dst: 2, Args: []int{0, 1}}
	add.SetDef(0, 7)
	if add.Dst != 7 {
		t.Error("SetDef on plain instruction failed")
	}
}

func TestCloneCopiesAllFields(t *testing.T) {
	sw := &Instr{
		Op: OpSwitch, Dst: NoReg, Args: []int{1},
		Cases: []int64{10, 20}, Targets: []int{2, 3, 4}, Tx: true,
	}
	recv := &Instr{Op: OpRecvLS, Dst: NoReg, Dsts: []int{5, 6}}
	f := &Func{Name: "c", Blocks: []*Block{{Instrs: []*Instr{recv, sw}}}}
	cl := f.Clone().Blocks[0].Instrs
	rc, c := cl[0], cl[1]
	c.Cases[0] = 99
	c.Targets[0] = 99
	if sw.Cases[0] == 99 || sw.Targets[0] == 99 {
		t.Error("Clone shares Cases/Targets")
	}
	if !c.Tx {
		t.Error("Clone dropped the Tx flag")
	}
	rc.Dsts[0] = 77
	if recv.Dsts[0] == 77 {
		t.Error("Clone shares Dsts")
	}
	// The copies' lists are windows of one slab: growing one must not write
	// over the next instruction's.
	rc.Dsts = append(rc.Dsts, 8)
	if c.Args[0] != 1 {
		t.Error("growing a cloned list overwrote its neighbour in the slab")
	}
}

func TestBodyAndTerm(t *testing.T) {
	f := NewFunc("bt")
	bl := NewBuilder(f)
	a := bl.Const(1)
	bl.CallVoid("trace", a)
	bl.Ret()
	b := f.Blocks[0]
	if b.Term() == nil || b.Term().Op != OpRet {
		t.Fatal("Term wrong")
	}
	empty := &Block{ID: 1}
	if empty.Term() != nil || len(empty.Succs()) != 0 {
		t.Error("empty block Term/Succs wrong")
	}
}

func TestNamedReg(t *testing.T) {
	f := NewFunc("nr")
	r := f.NamedReg("counter")
	if f.RegName[r] != "counter" {
		t.Error("NamedReg did not record the name")
	}
}
