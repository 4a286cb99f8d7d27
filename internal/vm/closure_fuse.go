package vm

import "amplify/internal/cc"

// Closure-level superinstruction fusion.
//
// The peephole pass fuses bytecode patterns; this pass fuses step
// patterns, because under closure dispatch the dominant
// per-instruction cost is the indirect call into the next step plus
// the bookkeeping prologue. A
// fused step executes several consecutive instructions in one closure
// body, eliminating the call round-trips between them and coalescing
// their prologues.
//
// Fusion must be invisible to the simulated machine. The governing
// rule: at every simulator-visible action (a Sync before shared host
// state, a cache Read/Write, allocator traffic, an explicit Work) the
// work units charged so far must equal the unfused chain's. Units are
// counted, not priced — the simulator settles them as that many
// Work(1) calls — so charges for consecutive instructions with no
// visible action between them coalesce into one pre() call with
// bit-identical results. Faulting operations (objSlot, arithmetic)
// must report the unfused instruction's fn@pc context, so each
// coalesced pre() carries the pc of the batch's faulting or visible
// instruction.
//
// Operand-stack writes are invisible to the simulation, so a fused
// body only materializes the stack slots that survive the region —
// interior values flow through Go locals.
//
// A region can only be fused if no interior pc is a jump target: the
// fused step owns the region's only entry point. (Fallthrough entry is
// rerouted automatically, because the preceding step's continuation
// pointer &steps[pc] now resolves to the fused step.)

// fuseSteps rewrites steps in place, replacing the entry step of every
// matched region with its fused form. Interior steps become dead but
// remain valid, keeping continuation pointers stable.
func (p *Program) fuseSteps(code []Instr, depth []int, steps []step) {
	targets := make([]bool, len(code)+1)
	for _, ins := range code {
		switch ins.Op {
		case OpJmp, OpJmpFalse, OpJmpTrue:
			if t := int(ins.A); t >= 0 && t <= len(code) {
				targets[t] = true
			}
		}
	}
	at := func(i int) *step {
		if i >= 0 && i < len(steps) {
			return &steps[i]
		}
		return nil
	}
	// clear reports whether [pc+1, pc+n) is inside the function, fully
	// reachable, and free of jump targets — the fusibility condition.
	clear := func(pc, n int) bool {
		if pc+n > len(code) {
			return false
		}
		for q := pc + 1; q < pc+n; q++ {
			if targets[q] || depth[q] == -1 {
				return false
			}
		}
		return true
	}
	for pc := 0; pc < len(code); {
		if depth[pc] == -1 {
			pc++
			continue
		}
		f, n := p.fuseAt(code, depth, pc, clear, at)
		if f == nil {
			pc++
			continue
		}
		steps[pc] = f
		pc += n
	}
}

func isStaticLoadF(ins Instr) bool  { return ins.Op == OpLoadField && ins.B != 1 }
func isStaticStoreF(ins Instr) bool { return ins.Op == OpStoreField && ins.B != 1 }
func isIntConst(ins Instr) bool     { return ins.Op == OpConst && ins.B != 1 }

func isBinop(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// wsum sums the work charge of code[pc:pc+n].
func wsum(code []Instr, pc, n int) int64 {
	var w int64
	for q := pc; q < pc+n; q++ {
		w += int64(code[q].W)
	}
	return w
}

// loadThisField is the static-index OpLoadField body with the receiver
// known to be `this` (the fused this;loadf idiom).
func (fr *cframe) loadThisField(idx int32) value {
	m := fr.m
	fr.c.Sync()
	s := m.objSlot(fr.this, &m.cLoadField)
	fr.c.Read(uint64(fr.this)+uint64(s.class.offsets[idx]), cc.FieldSize)
	return s.fields[idx]
}

// storeThisField is the static-index OpStoreField body with the
// receiver known to be `this`.
func (fr *cframe) storeThisField(idx int32, v value) {
	m := fr.m
	fr.c.Sync()
	s := m.objSlot(fr.this, &m.cStoreField)
	fr.c.Write(uint64(fr.this)+uint64(s.class.offsets[idx]), cc.FieldSize)
	s.fields[idx] = v
}

// evalBinop applies a binary operator exactly as the unfused arith
// step would: integer (and string-id) operands take the inline path,
// references fall back to machine.arith for pointer-comparison
// semantics and fault messages.
func evalBinop(fr *cframe, op Op, x, y value) value {
	if x.kind != 'r' && y.kind != 'r' {
		switch op {
		case OpAdd:
			return iv(x.i + y.i)
		case OpSub:
			return iv(x.i - y.i)
		case OpMul:
			return iv(x.i * y.i)
		case OpDiv:
			if y.i == 0 {
				fr.m.fail("division by zero")
			}
			return iv(x.i / y.i)
		case OpMod:
			if y.i == 0 {
				fr.m.fail("modulo by zero")
			}
			return iv(x.i % y.i)
		case OpEq:
			return iv(b2i(x.i == y.i))
		case OpNe:
			return iv(b2i(x.i != y.i))
		case OpLt:
			return iv(b2i(x.i < y.i))
		case OpLe:
			return iv(b2i(x.i <= y.i))
		case OpGt:
			return iv(b2i(x.i > y.i))
		case OpGe:
			return iv(b2i(x.i >= y.i))
		}
	}
	return fr.m.arith(op, x, y)
}

// fuseAt tries every fusion pattern at pc, longest first, and returns
// the fused step plus the region length (nil, 0 when nothing matches).
func (p *Program) fuseAt(code []Instr, depth []int, pc int, clear func(pc, n int) bool, at func(i int) *step) (step, int) {
	ins := code[pc]
	d := depth[pc]

	switch ins.Op {
	case OpDup:
		// dup; this; storef; pop — store the stack top into a field of
		// this, keeping nothing: the compiler's expression-statement
		// form of `this->f = v`.
		if clear(pc, 4) && code[pc+1].Op == OpLoadThis && isStaticStoreF(code[pc+2]) && code[pc+3].Op == OpPop {
			wStore := wsum(code, pc, 3)
			wPop := int64(code[pc+3].W)
			idx := code[pc+2].A
			next := at(pc + 4)
			return func(fr *cframe) *step {
				if !fr.pre(pc+2, wStore) {
					fr.preSlow(wStore)
				}
				fr.storeThisField(idx, fr.stack[d-1])
				if !fr.pre(pc+3, wPop) {
					fr.preSlow(wPop)
				}
				return next
			}, 4
		}

	case OpLoadLocal:
		a := int(ins.A)
		// loadl; const; binop; dup; this; storef; pop — a whole field
		// initialization `this->f = local OP k` in one step: the value
		// is computed and stored without ever touching the operand
		// stack.
		if clear(pc, 7) && isIntConst(code[pc+1]) && isBinop(code[pc+2].Op) &&
			code[pc+3].Op == OpDup && code[pc+4].Op == OpLoadThis &&
			isStaticStoreF(code[pc+5]) && code[pc+6].Op == OpPop {
			wOp := wsum(code, pc, 3)
			wStore := wsum(code, pc+3, 3)
			wPop := int64(code[pc+6].W)
			k := iv(p.Consts[code[pc+1].A])
			op := code[pc+2].Op
			idx := code[pc+5].A
			next := at(pc + 7)
			opPC, stPC, popPC := pc+2, pc+5, pc+6
			return func(fr *cframe) *step {
				if !fr.pre(opPC, wOp) {
					fr.preSlow(wOp)
				}
				v := evalBinop(fr, op, fr.slots[a], k)
				if !fr.pre(stPC, wStore) {
					fr.preSlow(wStore)
				}
				fr.storeThisField(idx, v)
				if !fr.pre(popPC, wPop) {
					fr.preSlow(wPop)
				}
				return next
			}, 7
		}
		// loadl; addc; dup; this; storef; pop — `this->f = local + k`.
		if clear(pc, 6) && code[pc+1].Op == OpAddConst &&
			code[pc+2].Op == OpDup && code[pc+3].Op == OpLoadThis &&
			isStaticStoreF(code[pc+4]) && code[pc+5].Op == OpPop {
			wAdd := wsum(code, pc, 2)
			wStore := wsum(code, pc+2, 3)
			wPop := int64(code[pc+5].W)
			k := p.Consts[code[pc+1].A]
			idx := code[pc+4].A
			next := at(pc + 6)
			addPC, stPC, popPC := pc+1, pc+4, pc+5
			return func(fr *cframe) *step {
				if !fr.pre(addPC, wAdd) {
					fr.preSlow(wAdd)
				}
				x := fr.slots[a]
				if x.kind == 'r' {
					fr.m.fail("invalid pointer arithmetic")
				}
				if !fr.pre(stPC, wStore) {
					fr.preSlow(wStore)
				}
				fr.storeThisField(idx, iv(x.i+k))
				if !fr.pre(popPC, wPop) {
					fr.preSlow(wPop)
				}
				return next
			}, 6
		}
		// loadl; dup; this; storef; pop — `this->f = local`.
		if clear(pc, 5) && code[pc+1].Op == OpDup && code[pc+2].Op == OpLoadThis &&
			isStaticStoreF(code[pc+3]) && code[pc+4].Op == OpPop {
			wStore := wsum(code, pc, 4)
			wPop := int64(code[pc+4].W)
			idx := code[pc+3].A
			next := at(pc + 5)
			stPC, popPC := pc+3, pc+4
			return func(fr *cframe) *step {
				if !fr.pre(stPC, wStore) {
					fr.preSlow(wStore)
				}
				fr.storeThisField(idx, fr.slots[a])
				if !fr.pre(popPC, wPop) {
					fr.preSlow(wPop)
				}
				return next
			}, 5
		}
		// loadl; const; binop; jmpf/jmpt — compare-and-branch on a
		// local against a constant (loop headers). The branch is
		// invisible, so its charge coalesces with the comparison's.
		if clear(pc, 4) && isIntConst(code[pc+1]) && isBinop(code[pc+2].Op) &&
			(code[pc+3].Op == OpJmpFalse || code[pc+3].Op == OpJmpTrue) {
			wAll := wsum(code, pc, 4)
			k := iv(p.Consts[code[pc+1].A])
			op := code[pc+2].Op
			onTrue := code[pc+3].Op == OpJmpTrue
			target := at(int(code[pc+3].A))
			next := at(pc + 4)
			cmpPC := pc + 2
			return func(fr *cframe) *step {
				if !fr.pre(cmpPC, wAll) {
					fr.preSlow(wAll)
				}
				if evalBinop(fr, op, fr.slots[a], k).truthy() == onTrue {
					return target
				}
				return next
			}, 4
		}
		// loadl; addc; storel — the canonical loop increment
		// `i = i + k` after peephole fusion.
		if clear(pc, 3) && code[pc+1].Op == OpAddConst && code[pc+2].Op == OpStoreLocal {
			wAll := wsum(code, pc, 3)
			k := p.Consts[code[pc+1].A]
			b := int(code[pc+2].A)
			next := at(pc + 3)
			addPC := pc + 1
			return func(fr *cframe) *step {
				if !fr.pre(addPC, wAll) {
					fr.preSlow(wAll)
				}
				x := fr.slots[a]
				if x.kind == 'r' {
					fr.m.fail("invalid pointer arithmetic")
				}
				fr.slots[b] = iv(x.i + k)
				return next
			}, 3
		}
		// loadl; const; binop — local-vs-constant arithmetic.
		if clear(pc, 3) && isIntConst(code[pc+1]) && isBinop(code[pc+2].Op) {
			wAll := wsum(code, pc, 3)
			k := iv(p.Consts[code[pc+1].A])
			op := code[pc+2].Op
			next := at(pc + 3)
			opPC := pc + 2
			return func(fr *cframe) *step {
				if !fr.pre(opPC, wAll) {
					fr.preSlow(wAll)
				}
				fr.stack[d] = evalBinop(fr, op, fr.slots[a], k)
				return next
			}, 3
		}
		// loadl; this; loadf — push a local, then a field of this (the
		// argument-then-receiver shape of `x + this->f->m(...)`).
		if clear(pc, 3) && code[pc+1].Op == OpLoadThis && isStaticLoadF(code[pc+2]) {
			wAll := wsum(code, pc, 3)
			idx := code[pc+2].A
			next := at(pc + 3)
			loadPC := pc + 2
			return func(fr *cframe) *step {
				if !fr.pre(loadPC, wAll) {
					fr.preSlow(wAll)
				}
				fr.stack[d] = fr.slots[a]
				fr.stack[d+1] = fr.loadThisField(idx)
				return next
			}, 3
		}
		// loadl; addc — local plus constant.
		if clear(pc, 2) && code[pc+1].Op == OpAddConst {
			wAll := wsum(code, pc, 2)
			k := p.Consts[code[pc+1].A]
			next := at(pc + 2)
			addPC := pc + 1
			return func(fr *cframe) *step {
				if !fr.pre(addPC, wAll) {
					fr.preSlow(wAll)
				}
				x := fr.slots[a]
				if x.kind == 'r' {
					fr.m.fail("invalid pointer arithmetic")
				}
				fr.stack[d] = iv(x.i + k)
				return next
			}, 2
		}
		// loadl; ret — return a local.
		if clear(pc, 2) && code[pc+1].Op == OpRet {
			wAll := wsum(code, pc, 2)
			retPC := pc + 1
			return func(fr *cframe) *step {
				if !fr.pre(retPC, wAll) {
					fr.preSlow(wAll)
				}
				fr.ret = fr.slots[a]
				return nil
			}, 2
		}
		// loadl; delete — delete a pointer held in a local.
		if clear(pc, 2) && code[pc+1].Op == OpDelete {
			wAll := wsum(code, pc, 2)
			next := at(pc + 2)
			delPC := pc + 1
			return func(fr *cframe) *step {
				if !fr.pre(delPC, wAll) {
					fr.preSlow(wAll)
				}
				fr.m.doDelete(fr.th, fr.slots[a])
				return next
			}, 2
		}

	case OpLoadThis:
		// this; loadf; this; loadf; binop — combine two fields of
		// this (`d1 + d2`); both intermediate values live in locals.
		if clear(pc, 5) && isStaticLoadF(code[pc+1]) && code[pc+2].Op == OpLoadThis &&
			isStaticLoadF(code[pc+3]) && isBinop(code[pc+4].Op) {
			w01 := wsum(code, pc, 2)
			w23 := wsum(code, pc+2, 2)
			w4 := int64(code[pc+4].W)
			i1, i2 := code[pc+1].A, code[pc+3].A
			op := code[pc+4].Op
			next := at(pc + 5)
			ld1PC, ld2PC, opPC := pc+1, pc+3, pc+4
			return func(fr *cframe) *step {
				if !fr.pre(ld1PC, w01) {
					fr.preSlow(w01)
				}
				x := fr.loadThisField(i1)
				if !fr.pre(ld2PC, w23) {
					fr.preSlow(w23)
				}
				y := fr.loadThisField(i2)
				if !fr.pre(opPC, w4) {
					fr.preSlow(w4)
				}
				fr.stack[d] = evalBinop(fr, op, x, y)
				return next
			}, 5
		}
		// this; loadf; binop; storel — fold a field of this into the
		// stack top and store the result in a local.
		if clear(pc, 4) && isStaticLoadF(code[pc+1]) && isBinop(code[pc+2].Op) &&
			code[pc+3].Op == OpStoreLocal {
			wLoad := wsum(code, pc, 2)
			wOp := wsum(code, pc+2, 2)
			idx := code[pc+1].A
			op := code[pc+2].Op
			b := int(code[pc+3].A)
			next := at(pc + 4)
			loadPC, opPC := pc+1, pc+2
			return func(fr *cframe) *step {
				if !fr.pre(loadPC, wLoad) {
					fr.preSlow(wLoad)
				}
				y := fr.loadThisField(idx)
				if !fr.pre(opPC, wOp) {
					fr.preSlow(wOp)
				}
				fr.slots[b] = evalBinop(fr, op, fr.stack[d-1], y)
				return next
			}, 4
		}
		if clear(pc, 3) && isStaticLoadF(code[pc+1]) {
			wLoad := wsum(code, pc, 2)
			w2 := int64(code[pc+2].W)
			idx := code[pc+1].A
			third := code[pc+2]
			loadPC := pc + 1
			switch {
			// this; loadf; jmpf/jmpt — branch on a field of this.
			case third.Op == OpJmpFalse || third.Op == OpJmpTrue:
				onTrue := third.Op == OpJmpTrue
				target := at(int(third.A))
				next := at(pc + 3)
				brPC := pc + 2
				return func(fr *cframe) *step {
					if !fr.pre(loadPC, wLoad) {
						fr.preSlow(wLoad)
					}
					v := fr.loadThisField(idx)
					if !fr.pre(brPC, w2) {
						fr.preSlow(w2)
					}
					if v.truthy() == onTrue {
						return target
					}
					return next
				}, 3
			// this; loadf; delete — the destructor's `delete this->f`.
			case third.Op == OpDelete:
				next := at(pc + 3)
				delPC := pc + 2
				return func(fr *cframe) *step {
					if !fr.pre(loadPC, wLoad) {
						fr.preSlow(wLoad)
					}
					v := fr.loadThisField(idx)
					if !fr.pre(delPC, w2) {
						fr.preSlow(w2)
					}
					fr.m.doDelete(fr.th, v)
					return next
				}, 3
			// this; loadf; binop — combine a field of this with the
			// stack top.
			case isBinop(third.Op):
				op := third.Op
				next := at(pc + 3)
				opPC := pc + 2
				return func(fr *cframe) *step {
					if !fr.pre(loadPC, wLoad) {
						fr.preSlow(wLoad)
					}
					y := fr.loadThisField(idx)
					if !fr.pre(opPC, w2) {
						fr.preSlow(w2)
					}
					fr.stack[d-1] = evalBinop(fr, op, fr.stack[d-1], y)
					return next
				}, 3
			}
		}
		// this; loadf — push a field of this.
		if clear(pc, 2) && isStaticLoadF(code[pc+1]) {
			wAll := wsum(code, pc, 2)
			idx := code[pc+1].A
			next := at(pc + 2)
			loadPC := pc + 1
			return func(fr *cframe) *step {
				if !fr.pre(loadPC, wAll) {
					fr.preSlow(wAll)
				}
				fr.stack[d] = fr.loadThisField(idx)
				return next
			}, 2
		}

	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		// binop; storel — combine the two stack tops into a local.
		// The batch's pre carries the binop's own pc: it is the only
		// faulting instruction in the region.
		if clear(pc, 2) && code[pc+1].Op == OpStoreLocal {
			wAll := wsum(code, pc, 2)
			op := ins.Op
			b := int(code[pc+1].A)
			next := at(pc + 2)
			return func(fr *cframe) *step {
				if !fr.pre(pc, wAll) {
					fr.preSlow(wAll)
				}
				fr.slots[b] = evalBinop(fr, op, fr.stack[d-2], fr.stack[d-1])
				return next
			}, 2
		}

	case OpConst:
		// const; storel — initialize a local with a constant.
		if clear(pc, 2) && code[pc+1].Op == OpStoreLocal {
			wAll := wsum(code, pc, 2)
			var k value
			if ins.B == 1 {
				k = value{kind: 's', s: p.Strs[ins.A]}
			} else {
				k = iv(p.Consts[ins.A])
			}
			b := int(code[pc+1].A)
			next := at(pc + 2)
			stPC := pc + 1
			return func(fr *cframe) *step {
				if !fr.pre(stPC, wAll) {
					fr.preSlow(wAll)
				}
				fr.slots[b] = k
				return next
			}, 2
		}
	}
	return nil, 0
}
