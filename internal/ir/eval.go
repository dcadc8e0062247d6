package ir

// What the IR computes. These are the one definition of its value
// semantics: ppc's constant folder, the interpreter and internal/exec (its
// set-up folder and its closures alike) all call them, so the backends
// agree on every leaf value by construction and their differential tests
// check the rest — control flow, effects, event order, step counting.

// Eval computes a unary or binary op over a and b (a unary op ignores b).
// It panics on any other op.
func Eval(op Op, a, b int64) int64 {
	switch op {
	case OpNeg:
		return -a
	case OpNot:
		return Bool(a == 0)
	case OpBNot:
		return ^a
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		return Div(a, b)
	case OpMod:
		return Mod(a, b)
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return Shl(a, b)
	case OpShr:
		return Shr(a, b)
	case OpEq:
		return Bool(a == b)
	case OpNe:
		return Bool(a != b)
	case OpLt:
		return Bool(a < b)
	case OpLe:
		return Bool(a <= b)
	case OpGt:
		return Bool(a > b)
	case OpGe:
		return Bool(a >= b)
	}
	panic("ir: Eval on " + op.String())
}

// Bool is a comparison's result: 1 if v, else 0.
func Bool(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// Div is total division: a zero divisor yields 0. MinInt64 / -1 needs no
// guard: Go defines it as MinInt64, without a trap.
func Div(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Mod is Div's remainder: a zero divisor yields 0 (and Go defines
// MinInt64 % -1 as 0).
func Mod(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a % b
}

// Shl shifts a left by b taken mod 64.
func Shl(a, b int64) int64 { return a << (uint64(b) & 63) }

// Shr shifts a right, arithmetically, by b taken mod 64.
func Shr(a, b int64) int64 { return a >> (uint64(b) & 63) }

// Wrap maps an array index into 0..size-1, modulo size: out-of-range and
// negative indices wrap.
func Wrap(i int64, size int) int {
	v := i % int64(size)
	if v < 0 {
		v += int64(size)
	}
	return int(v)
}

// CsumFold is csum_fold: the low 32 bits of x folded twice into 16.
func CsumFold(x int64) int64 {
	v := uint64(x) & 0xFFFFFFFF
	v = (v & 0xFFFF) + (v >> 16)
	v = (v & 0xFFFF) + (v >> 16)
	return int64(v)
}

// HashCRC is hash_crc: a small deterministic integer mix
// (xorshift-multiply) into 31 bits.
func HashCRC(x int64) int64 {
	v := uint64(x)
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return int64(v & 0x7FFFFFFF)
}

// PktByte is pkt_byte: an offset outside the packet reads 0.
func PktByte(pkt []byte, off int64) int64 {
	if uint64(off) < uint64(len(pkt)) {
		return int64(pkt[off])
	}
	return 0
}

// PktWord is pkt_word: four bytes big-endian from off, each read as
// PktByte reads it.
func PktWord(pkt []byte, off int64) (v int64) {
	for i := int64(0); i < 4; i++ {
		v = v<<8 | PktByte(pkt, off+i)
	}
	return v
}

// SetPktByte is pkt_setbyte: the low byte of v is written at off, unless
// off is outside the packet.
func SetPktByte(pkt []byte, off, v int64) {
	if uint64(off) < uint64(len(pkt)) {
		pkt[off] = byte(v)
	}
}

// SetPktWord is pkt_setword: the low four bytes of v, big-endian from off,
// each written as SetPktByte writes it.
func SetPktWord(pkt []byte, off, v int64) {
	for i := int64(0); i < 4; i++ {
		SetPktByte(pkt, off+i, v>>(8*(3-i)))
	}
}
