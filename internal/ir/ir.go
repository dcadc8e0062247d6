package ir

import "fmt"

// NoReg marks an absent register (e.g. a call with no result).
const NoReg = -1

// Array is a module-level memory region. Local arrays are conceptually
// re-allocated (zeroed) at the start of every PPS-loop iteration; persistent
// arrays carry flow state from one iteration to the next and therefore
// induce PPS-loop-carried dependences.
type Array struct {
	ID         int
	Name       string
	Size       int
	Persistent bool

	// Init optionally holds initial values for the leading elements of a
	// persistent array (used for persistent scalars with initializers).
	// Local arrays are always zeroed at iteration start.
	Init []int64
}

// String renders the array's declaration (kind, name, size).
func (a *Array) String() string {
	kind := "local"
	if a.Persistent {
		kind = "persistent"
	}
	return fmt.Sprintf("%s %s[%d]", kind, a.Name, a.Size)
}

// Instr is a single IR instruction. Which fields are meaningful depends on
// Op; unused fields are zero.
type Instr struct {
	Op   Op
	Dst  int    // defined register, or NoReg
	Args []int  // operand registers
	Imm  int64  // OpConst value
	Arr  *Array // OpLoad/OpStore target
	Call string // OpCall intrinsic name
	Dsts []int  // OpRecvLS slot registers
	Tx   bool   // true for instructions that implement live-set transmission

	// Phi bookkeeping (SSA only): PhiPreds[i] is the block ID the value
	// Args[i] flows in from.
	PhiPreds []int

	// Terminator targets (block IDs). For OpBr: [then, else]. For
	// OpSwitch: parallel with Cases, plus a final default target.
	Targets []int
	Cases   []int64
}

// Defines returns the registers this instruction defines.
func (in *Instr) Defines() []int {
	if in.Op == OpRecvLS {
		return in.Dsts
	}
	if in.Dst != NoReg && (in.Op.HasDst() || in.Op == OpCall) {
		return []int{in.Dst}
	}
	return nil
}

// Uses returns the registers this instruction reads. The returned slice
// aliases in.Args when possible; callers must not modify it.
func (in *Instr) Uses() []int {
	return in.Args
}

// SetDef replaces the i'th defined register (parallel to Defines).
func (in *Instr) SetDef(i, r int) {
	if in.Op == OpRecvLS {
		in.Dsts[i] = r
		return
	}
	in.Dst = r
}

// Block is a basic block. ID indexes Func.Blocks.
type Block struct {
	ID     int
	Name   string
	Instrs []*Instr

	// LoopBound, when positive on a loop header, is the maximum trip count
	// used for worst-case path cost estimation (from the PPC source's
	// loop[n] annotation).
	LoopBound int
}

// Term returns the block's terminator (its last instruction), or nil if the
// block is empty or unterminated (only legal mid-construction).
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the successor block IDs.
func (b *Block) Succs() []int {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Targets
}

// Func is the body of one PPS-loop iteration in IR form.
type Func struct {
	Name    string
	Blocks  []*Block // indexed by Block.ID
	Entry   int
	NumRegs int

	// RegName optionally maps registers to source-level names (debugging
	// and reporting only).
	RegName map[int]string
}

// NewFunc returns an empty function with a single unterminated entry block.
func NewFunc(name string) *Func {
	f := &Func{Name: name, RegName: make(map[int]string)}
	f.NewBlock("entry")
	return f
}

// NewBlock appends a fresh empty block and returns it.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{ID: len(f.Blocks), Name: name}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() int {
	r := f.NumRegs
	f.NumRegs++
	return r
}

// NamedReg allocates a register and records its source name.
func (f *Func) NamedReg(name string) int {
	r := f.NewReg()
	f.RegName[r] = name
	return r
}

// Clone returns a deep copy of the function. The copies come out of one
// allocation per kind (blocks, instructions, instruction lists, register
// lists), each list a window of its slab that an append moves out of.
func (f *Func) Clone() *Func {
	c := &Func{
		Name:    f.Name,
		Entry:   f.Entry,
		NumRegs: f.NumRegs,
		RegName: make(map[int]string, len(f.RegName)),
	}
	for r, n := range f.RegName {
		c.RegName[r] = n
	}
	nInstrs, nInts := 0, 0
	for _, b := range f.Blocks {
		nInstrs += len(b.Instrs)
		for _, in := range b.Instrs {
			nInts += len(in.Args) + len(in.Dsts) + len(in.PhiPreds) + len(in.Targets)
		}
	}
	blocks, instrs, ptrs, ints := make([]Block, len(f.Blocks)), make([]Instr, nInstrs), make([]*Instr, nInstrs), make([]int, nInts)
	take := func(s []int) []int {
		if len(s) == 0 {
			return nil
		}
		n := copy(ints, s)
		out := ints[:n:n]
		ints = ints[n:]
		return out
	}
	c.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &blocks[i]
		*nb = Block{ID: b.ID, Name: b.Name, LoopBound: b.LoopBound}
		nb.Instrs, ptrs = ptrs[:len(b.Instrs):len(b.Instrs)], ptrs[len(b.Instrs):]
		for j, in := range b.Instrs {
			ni := &instrs[0]
			instrs = instrs[1:]
			*ni = *in
			ni.Args, ni.Dsts, ni.PhiPreds, ni.Targets = take(in.Args), take(in.Dsts), take(in.PhiPreds), take(in.Targets)
			ni.Cases = append([]int64(nil), in.Cases...)
			nb.Instrs[j] = ni
		}
		c.Blocks[i] = nb
	}
	return c
}

// Program couples a PPS function with the arrays it references.
type Program struct {
	Name   string
	Arrays []*Array
	Func   *Func
}

// ArrayByName returns the named array, or nil.
func (p *Program) ArrayByName(name string) *Array {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Clone deep-copies the program. Cloned instructions keep pointing at the
// cloned arrays.
func (p *Program) Clone() *Program {
	c := &Program{Name: p.Name}
	amap := make(map[*Array]*Array, len(p.Arrays))
	for _, a := range p.Arrays {
		na := *a
		amap[a] = &na
		c.Arrays = append(c.Arrays, &na)
	}
	c.Func = p.Func.Clone()
	for _, b := range c.Func.Blocks {
		for _, in := range b.Instrs {
			if in.Arr != nil {
				in.Arr = amap[in.Arr]
			}
		}
	}
	return c
}
