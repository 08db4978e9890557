package pointsto

import (
	"strconv"

	"determinacy/internal/ir"
)

// processFunction translates a function body into constraints, once. It is
// invoked when a function first becomes reachable: at startup for the top
// level and from call resolution otherwise, so dead code costs nothing.
func (a *analysis) processFunction(fn *ir.Function) {
	if a.processed[fn.Index] {
		return
	}
	a.processed[fn.Index] = true
	a.block(fn, fn.Body)
}

// defFn returns the function whose slots a VarRef resolves into.
func defFn(fn *ir.Function, hops int) *ir.Function {
	for i := 0; i < hops; i++ {
		fn = fn.Parent
	}
	return fn
}

func (a *analysis) block(fn *ir.Function, b *ir.Block) {
	if b == nil {
		return
	}
	for _, in := range b.Instrs {
		a.instr(fn, in)
	}
}

func (a *analysis) instr(fn *ir.Function, in ir.Instr) {
	switch in := in.(type) {
	case *ir.Const:
		if in.Val.Kind == ir.LitString {
			s := in.Val.Str
			a.regStr[regKey{fn.Index, in.Dst}] = &s
		} else {
			a.regStr[regKey{fn.Index, in.Dst}] = nil
		}
	case *ir.Move:
		a.regStr[regKey{fn.Index, in.Dst}] = joinStr(a.regStr[regKey{fn.Index, in.Dst}], a.regStr[regKey{fn.Index, in.Src}], a.seen(fn, in.Dst))
		a.addCopy(a.regNode(fn, in.Src), a.regNode(fn, in.Dst))
	case *ir.LoadVar:
		df := defFn(fn, in.Var.Hops)
		a.addCopy(a.varNode(df, in.Var.Slot), a.regNode(fn, in.Dst))
	case *ir.StoreVar:
		df := defFn(fn, in.Var.Hops)
		a.addCopy(a.regNode(fn, in.Src), a.varNode(df, in.Var.Slot))
	case *ir.LoadGlobal:
		a.addCopy(a.fieldNode(a.globalObj, in.Name), a.regNode(fn, in.Dst))
	case *ir.StoreGlobal:
		a.addCopy(a.regNode(fn, in.Src), a.fieldNode(a.globalObj, in.Name))
	case *ir.MakeClosure:
		fo := a.funcObject(in.ID, in.Fn)
		a.addObj(a.regNode(fn, in.Dst), fo)
	case *ir.MakeObject:
		o := a.allocObject(in.ID, "Object")
		a.addObj(a.protoNode(o), a.protos["Object"])
		for _, p := range in.Props {
			a.addCopy(a.regNode(fn, p.Val), a.fieldNode(o, p.Key))
		}
		a.addObj(a.regNode(fn, in.Dst), o)
	case *ir.MakeArray:
		o := a.allocObject(in.ID, "Array")
		a.addObj(a.protoNode(o), a.protos["Array"])
		for i, e := range in.Elems {
			a.addCopy(a.regNode(fn, e), a.fieldNode(o, strconv.Itoa(i)))
		}
		a.addObj(a.regNode(fn, in.Dst), o)
	case *ir.GetField:
		a.addConstraint(a.regNode(fn, in.Obj),
			&loadC{field: in.Name, dst: a.regNode(fn, in.Dst)})
	case *ir.GetProp:
		if s := a.regStr[regKey{fn.Index, in.Prop}]; s != nil {
			a.addConstraint(a.regNode(fn, in.Obj),
				&loadC{field: *s, dst: a.regNode(fn, in.Dst)})
		} else {
			a.addConstraint(a.regNode(fn, in.Obj),
				&loadC{wild: true, dst: a.regNode(fn, in.Dst)})
		}
	case *ir.SetField:
		a.addConstraint(a.regNode(fn, in.Obj),
			&storeC{field: in.Name, src: a.regNode(fn, in.Src)})
	case *ir.SetProp:
		if s := a.regStr[regKey{fn.Index, in.Prop}]; s != nil {
			a.addConstraint(a.regNode(fn, in.Obj),
				&storeC{field: *s, src: a.regNode(fn, in.Src)})
		} else {
			a.addConstraint(a.regNode(fn, in.Obj),
				&storeC{wild: true, src: a.regNode(fn, in.Src)})
		}
	case *ir.BinOp, *ir.UnOp, *ir.DelField, *ir.DelProp:
		// No pointer flow; results are primitives.
	case *ir.Call:
		ci := &callInfo{site: in.ID, fn: fn, args: in.Args, this: in.This, dst: in.Dst, resolved: map[ObjID]bool{}}
		a.callSites[in.ID] = ci
		a.addConstraint(a.regNode(fn, in.Fn), &callC{ci: ci})
	case *ir.New:
		ci := &callInfo{site: in.ID, fn: fn, args: in.Args, this: ir.NoReg, dst: in.Dst, isNew: true, resolved: map[ObjID]bool{}}
		a.callSites[in.ID] = ci
		a.addConstraint(a.regNode(fn, in.Fn), &callC{ci: ci})
	case *ir.Return:
		if in.Src != ir.NoReg {
			a.addCopy(a.regNode(fn, in.Src), a.retNode(fn))
		}
	case *ir.Throw:
		a.addCopy(a.regNode(fn, in.Src), a.thrownNode())
	case *ir.If:
		a.block(fn, in.Then)
		a.block(fn, in.Else)
	case *ir.While:
		a.block(fn, in.CondBlock)
		a.block(fn, in.Body)
		a.block(fn, in.Update)
	case *ir.ForIn:
		a.block(fn, in.Body)
	case *ir.Try:
		a.block(fn, in.Body)
		if in.HasCatch {
			if in.GlobalCatch != "" {
				a.addCopy(a.thrownNode(), a.fieldNode(a.globalObj, in.GlobalCatch))
			} else {
				df := defFn(fn, in.CatchVar.Hops)
				a.addCopy(a.thrownNode(), a.varNode(df, in.CatchVar.Slot))
			}
		}
		a.block(fn, in.Catch)
		a.block(fn, in.Finally)
	}
}

// seen reports whether a register already had a string constant recorded
// (two joins at a merge degrade to unknown unless equal).
func (a *analysis) seen(fn *ir.Function, r ir.Reg) bool {
	_, ok := a.regStr[regKey{fn.Index, r}]
	return ok
}

func joinStr(old, new *string, hadOld bool) *string {
	if !hadOld {
		return new
	}
	if old == nil || new == nil {
		return nil
	}
	if *old == *new {
		return old
	}
	return nil
}

var thrownNodeKey = -1

func (a *analysis) thrownNode() int {
	n, ok := a.retNodes[thrownNodeKey]
	if !ok {
		n = a.newNode()
		a.retNodes[thrownNodeKey] = n
	}
	return n
}

// funcObject materializes the function object and its .prototype object for
// a closure site.
func (a *analysis) funcObject(site ir.ID, fn *ir.Function) ObjID {
	if fo, ok := a.funcObjOf[site]; ok {
		return fo
	}
	fo := a.newObject(&Object{Kind: KFunc, Site: site, Fn: fn})
	a.funcObjOf[site] = fo
	a.addObj(a.protoNode(fo), a.protos["Function"])
	po := a.newObject(&Object{Kind: KProto, Site: site, Name: fn.Name + ".prototype"})
	a.addObj(a.protoNode(po), a.protos["Object"])
	a.addObj(a.fieldNode(fo, "prototype"), po)
	a.addObj(a.fieldNode(po, "constructor"), fo)
	return fo
}

func (a *analysis) allocObject(site ir.ID, class string) ObjID {
	if o, ok := a.allocObjOf[site]; ok {
		return o
	}
	o := a.newObject(&Object{Kind: KAlloc, Site: site, Name: class})
	a.allocObjOf[site] = o
	return o
}

// ---------------------------------------------------------------------------
// Constraints

// loadC is dst ⊇ o.field (or all fields when wild), following prototype
// chains.
type loadC struct {
	field string
	wild  bool
	dst   int
}

// ckey dedups identical loads attached to the same node (the recursive
// prototype attachment re-derives them constantly).
func (c *loadC) ckey() constrKey {
	return constrKey{kind: 'l', wild: c.wild, field: c.field, node: c.dst}
}

func (c *loadC) apply(a *analysis, o ObjID) {
	if c.wild {
		a.addCopy(a.summaryNode(o), c.dst)
	} else {
		a.addCopy(a.fieldNode(o, c.field), c.dst)
	}
	a.addCopy(a.wildNode(o), c.dst)
	// Follow the prototype chain: the same load applies to every prototype
	// this object may have.
	a.addLoad(a.protoNode(o), c.field, c.wild, c.dst)
}

// storeC is o.field ⊇ src (or the wildcard when wild).
type storeC struct {
	field string
	wild  bool
	src   int
}

func (c *storeC) ckey() constrKey {
	return constrKey{kind: 's', wild: c.wild, field: c.field, node: c.src}
}

func (c *storeC) apply(a *analysis, o ObjID) {
	if c.wild {
		a.addCopy(c.src, a.wildNode(o))
		return
	}
	a.addCopy(c.src, a.fieldNode(o, c.field))
}

// callC resolves callees arriving at a call site's function node.
type callC struct {
	ci *callInfo
}

func (c *callC) apply(a *analysis, o ObjID) {
	ci := c.ci
	if ci.resolved[o] {
		return
	}
	obj := a.objs[o]
	switch obj.Kind {
	case KFunc:
		ci.resolved[o] = true
		a.wireCall(ci, o, obj.Fn)
	case KNative:
		ci.resolved[o] = true
		a.wireNative(ci, obj)
	default:
		// Calling a non-function: no call edge (a runtime TypeError).
	}
}

// wireCall connects arguments, receiver, return and self-reference for a
// user-function callee.
func (a *analysis) wireCall(ci *callInfo, funcObj ObjID, callee *ir.Function) {
	a.processFunction(callee)
	for i := range callee.Params {
		if i < len(ci.args) {
			slot := paramSlotIdx(callee, i)
			a.addCopy(a.regNode(ci.fn, ci.args[i]), a.varNode(callee, slot))
		}
	}
	if callee.SelfSlot >= 0 {
		a.addObj(a.varNode(callee, callee.SelfSlot), funcObj)
	}
	if ci.isNew {
		// The new-site object gets the callee's .prototype objects as
		// prototypes, becomes the receiver, and flows to the result
		// (together with any returned objects, per JS semantics).
		site := a.allocObject(ci.site, "New")
		a.addCopy(a.fieldNode(funcObj, "prototype"), a.protoNode(site))
		if callee.ThisSlot >= 0 {
			a.addObj(a.varNode(callee, callee.ThisSlot), site)
		}
		a.addObj(a.regNode(ci.fn, ci.dst), site)
		a.addCopy(a.retNode(callee), a.regNode(ci.fn, ci.dst))
		return
	}
	if callee.ThisSlot >= 0 {
		if ci.this != ir.NoReg {
			a.addCopy(a.regNode(ci.fn, ci.this), a.varNode(callee, callee.ThisSlot))
		} else {
			a.addObj(a.varNode(callee, callee.ThisSlot), a.globalObj)
		}
	}
	a.addCopy(a.retNode(callee), a.regNode(ci.fn, ci.dst))
}

func paramSlotIdx(fn *ir.Function, i int) int {
	name := fn.Params[i]
	for s, n := range fn.SlotNames {
		if n == name {
			return s
		}
	}
	return i
}

// wireNative models the pointer behaviour of builtins. Unmodeled natives
// return primitives and have no pointer effects — the standard baseline
// treatment (string semantics are exactly what the analysis cannot see).
func (a *analysis) wireNative(ci *callInfo, obj *Object) {
	switch obj.Name {
	case "call":
		// f.call(this, ...args): the receiver of the .call is the function.
		if ci.this == ir.NoReg {
			return
		}
		derived := &callInfo{site: ci.site, fn: ci.fn, dst: ci.dst, this: ir.NoReg, resolved: map[ObjID]bool{}}
		if len(ci.args) > 0 {
			derived.this = ci.args[0]
			derived.args = ci.args[1:]
		}
		a.addConstraint(a.regNode(ci.fn, ci.this), &callC{ci: derived})
	case "apply":
		// f.apply(this, arr): argument values are approximated by the
		// array's fields flowing to every parameter (coarse but sound for
		// the object graph).
		if ci.this == ir.NoReg {
			return
		}
		derived := &callInfo{site: ci.site, fn: ci.fn, dst: ci.dst, this: ir.NoReg, resolved: map[ObjID]bool{}}
		if len(ci.args) > 0 {
			derived.this = ci.args[0]
		}
		a.addConstraint(a.regNode(ci.fn, ci.this), &applyC{ci: derived, arr: argReg(ci, 1)})
	case "push", "unshift":
		if ci.this != ir.NoReg {
			for _, arg := range ci.args {
				a.addConstraint(a.regNode(ci.fn, ci.this), &storeC{wild: true, src: a.regNode(ci.fn, arg)})
			}
		}
	case "pop", "shift":
		if ci.this != ir.NoReg {
			a.addConstraint(a.regNode(ci.fn, ci.this), &loadC{wild: true, dst: a.regNode(ci.fn, ci.dst)})
		}
	case "forEach", "map", "filter":
		if ci.this != ir.NoReg && len(ci.args) > 0 {
			a.addConstraint(a.regNode(ci.fn, ci.args[0]), &callbackC{
				elems: a.regNode(ci.fn, ci.this), caller: ci.fn,
			})
		}
	case "getElementById", "createElement", "createTextNode", "appendChild", "removeChild":
		a.addObj(a.regNode(ci.fn, ci.dst), a.protos["DOMElement"])
	case "getElementsByTagName":
		a.addObj(a.regNode(ci.fn, ci.dst), a.protos["DOMNodeList"])
	case "setTimeout", "setInterval":
		if len(ci.args) > 0 {
			derived := &callInfo{site: ci.site, fn: ci.fn, dst: ci.dst, this: ir.NoReg, resolved: map[ObjID]bool{}}
			a.addConstraint(a.regNode(ci.fn, ci.args[0]), &callC{ci: derived})
		}
	case "addEventListener", "attachEvent":
		if len(ci.args) > 1 {
			derived := &callInfo{site: ci.site, fn: ci.fn, dst: ci.dst, this: ir.NoReg,
				args: nil, resolved: map[ObjID]bool{}}
			a.addConstraint(a.regNode(ci.fn, ci.args[1]), &eventHandlerC{ci: derived})
		}
	case "Object", "Array", "Error", "TypeError", "ReferenceError", "RangeError", "SyntaxError":
		o := a.allocObject(ci.site, obj.Name)
		a.addObj(a.protoNode(o), a.protoForCtor(obj.Name))
		a.addObj(a.regNode(ci.fn, ci.dst), o)
	case "eval":
		// Static analysis cannot see eval'd code; the site is recorded in
		// Result.EvalSites.
	}
}

func argReg(ci *callInfo, i int) int {
	if i < len(ci.args) {
		return int(ci.args[i])
	}
	return -1
}

func (a *analysis) protoForCtor(name string) ObjID {
	switch name {
	case "Array":
		return a.protos["Array"]
	case "Object":
		return a.protos["Object"]
	default:
		return a.protos["Error"]
	}
}

// applyC wires f.apply: functions arriving at the node are invoked with
// array-element arguments.
type applyC struct {
	ci  *callInfo
	arr int // register index of the argument array, or -1
}

func (c *applyC) apply(a *analysis, o ObjID) {
	obj := a.objs[o]
	if obj.Kind != KFunc {
		if obj.Kind == KNative {
			a.wireNative(c.ci, obj)
		}
		return
	}
	if c.ci.resolved[o] {
		return
	}
	c.ci.resolved[o] = true
	callee := obj.Fn
	a.processFunction(callee)
	if c.arr >= 0 {
		// Every element of the array may flow to every parameter.
		for i := range callee.Params {
			slot := paramSlotIdx(callee, i)
			a.addConstraint(a.regNode(c.ci.fn, ir.Reg(c.arr)), &loadC{wild: true, dst: a.varNode(callee, slot)})
		}
	}
	if callee.ThisSlot >= 0 && c.ci.this != ir.NoReg {
		a.addCopy(a.regNode(c.ci.fn, c.ci.this), a.varNode(callee, callee.ThisSlot))
	}
	a.addCopy(a.retNode(callee), a.regNode(c.ci.fn, c.ci.dst))
}

// callbackC invokes array-iteration callbacks with the array's contents.
type callbackC struct {
	elems  int // node holding the array objects
	caller *ir.Function
}

func (c *callbackC) apply(a *analysis, o ObjID) {
	obj := a.objs[o]
	if obj.Kind != KFunc {
		return
	}
	callee := obj.Fn
	a.processFunction(callee)
	if len(callee.Params) > 0 {
		slot := paramSlotIdx(callee, 0)
		a.addConstraint(c.elemsNode(a), &loadC{wild: true, dst: a.varNode(callee, slot)})
	}
	if callee.ThisSlot >= 0 {
		a.addObj(a.varNode(callee, callee.ThisSlot), a.globalObj)
	}
}

func (c *callbackC) elemsNode(a *analysis) int { return c.elems }

// eventHandlerC invokes DOM event handlers with an opaque event object.
type eventHandlerC struct {
	ci *callInfo
}

func (c *eventHandlerC) apply(a *analysis, o ObjID) {
	obj := a.objs[o]
	if obj.Kind != KFunc {
		return
	}
	if c.ci.resolved[o] {
		return
	}
	c.ci.resolved[o] = true
	callee := obj.Fn
	a.processFunction(callee)
	if len(callee.Params) > 0 {
		a.addObj(a.varNode(callee, paramSlotIdx(callee, 0)), a.protos["DOMEvent"])
	}
	if callee.ThisSlot >= 0 {
		a.addObj(a.varNode(callee, callee.ThisSlot), a.protos["DOMElement"])
	}
}
