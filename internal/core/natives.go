package core

import (
	"fmt"
	"strconv"
	"strings"

	"determinacy/internal/interp"
)

// library is the standard library of internal/interp; libraryFns holds
// its natives lifted into annotated values by each declaration's policy,
// built once since lifting depends on nothing but the declaration.
var (
	library    = interp.Library[Value]()
	libraryFns = liftAll(library)
)

func liftAll(decls []interp.Decl[Value]) map[*interp.Decl[Value]]nativeFn {
	fns := make(map[*interp.Decl[Value]]nativeFn, len(decls))
	for i := range decls {
		if decls[i].Kind == interp.DeclNative {
			fns[&decls[i]] = lift(&decls[i])
		}
	}
	return fns
}

// setupRuntime builds the instrumented global object and prototypes, then
// installs the shared library. Each native's determinacy model is its
// policy (§4): most are determinate in what they read, a few (Math.random,
// Date.now, __input) are indeterminate sources, and DOM operations are
// host reads or external effects.
func (a *Analysis) setupRuntime() {
	a.ObjectProto = &DObj{Class: "Object", ProtoDet: true, Data: protoMarker}
	protoOf := func() *DObj {
		return &DObj{Class: "Object", Proto: a.ObjectProto, ProtoDet: true, Data: protoMarker}
	}
	a.FunctionProto = protoOf()
	a.ArrayProto = protoOf()
	a.StringProto = protoOf()
	a.NumberProto = protoOf()
	a.BooleanProto = protoOf()
	a.ErrorProto = protoOf()
	a.Global = a.NewObj("Object", a.ObjectProto)

	a.readsDet = true
	a.tracker = &host{a: a, track: true}
	a.plain = &host{a: a}
	interp.Install[Value](a.tracker, library, map[string]Value{
		"Object.prototype":   ObjV(a.ObjectProto, true),
		"Function.prototype": ObjV(a.FunctionProto, true),
		"Array.prototype":    ObjV(a.ArrayProto, true),
		"String.prototype":   ObjV(a.StringProto, true),
		"Number.prototype":   ObjV(a.NumberProto, true),
		"Boolean.prototype":  ObjV(a.BooleanProto, true),
		"Error.prototype":    ObjV(a.ErrorProto, true),
	})
}

// Realm exposes the instrumented heap to embedders' declarations (the DOM
// binding). Its reads are not folded into any annotation: host bindings
// annotate what they return themselves.
func (a *Analysis) Realm() interp.Realm[Value] { return a.plain }

type nativeFn = func(*Analysis, Value, []Value) (Value, error)

// lift turns a declaration into an instrumented native by its policy.
func lift(d *interp.Decl[Value]) nativeFn {
	fn := d.Fn
	switch d.Policy {
	case interp.Special:
		body := specials[d.Path]
		if body == nil {
			panic("core: no body for special native " + d.Path)
		}
		return body
	case interp.DOMRead:
		// Host bindings annotate their own results.
		return func(a *Analysis, this Value, args []Value) (Value, error) {
			return fn(a.plain, this, args)
		}
	case interp.External:
		// Counterfactual execution stops at an effect its journal cannot
		// undo (§4).
		return func(a *Analysis, this Value, args []Value) (Value, error) {
			if a.cfDepth > 0 {
				return Value{}, errCFAbort
			}
			return fn(a.plain, this, args)
		}
	case interp.Source:
		return func(a *Analysis, this Value, args []Value) (Value, error) {
			v, _, err := a.tracked(fn, this, args)
			return v.Indet(), err
		}
	}
	result := d.Result
	return func(a *Analysis, this Value, args []Value) (Value, error) {
		start := a.nalloc
		v, det, err := a.tracked(fn, this, args)
		switch {
		case err != nil:
		case result == interp.ResultVoid:
			v = UndefD
		case result == interp.ResultFresh && v.Kind == Object && v.O.Alloc > start:
			v.Det = true
		default:
			v = v.WithDet(det)
		}
		return v, err
	}
}

// tracked runs a behaviour against the tracking host and reports whether
// everything it read was determinate.
func (a *Analysis) tracked(fn interp.Behaviour[Value], this Value, args []Value) (Value, bool, error) {
	saved := a.readsDet
	a.readsDet = true
	v, err := fn(a.tracker, this, args)
	det := a.readsDet
	a.readsDet = saved
	return v, det, err
}

// host implements interp.Realm over the instrumented heap. The tracking
// host folds the determinacy of every read into a.readsDet, annotates the
// values it builds and writes with it, and so realizes the Determinate
// policy; the plain host reads and writes values as they are.
type host struct {
	a     *Analysis
	track bool
}

func (h *host) read(det bool) {
	if h.track && !det {
		h.a.readsDet = false
	}
}

// det is the annotation of values the running behaviour builds or writes.
func (h *host) det() bool { return !h.track || h.a.readsDet }

func (h *host) Global() Value { return ObjV(h.a.Global, true) }

func (h *host) Native(name string, d *interp.Decl[Value]) Value {
	fn, ok := libraryFns[d]
	if !ok {
		fn = lift(d)
	}
	o := h.a.NewNativeObj(name, fn)
	o.Native.IsEval = d.Path == "eval"
	return ObjV(o, true)
}

// Accessor installs a host binding's accessor (the DOM's live
// properties), lifted by its policy like a native.
func (h *host) Accessor(o Value, name string, d *interp.Decl[Value]) {
	if d.Kind == interp.DeclSetter {
		o.O.DefineSetter(name, lift(d))
	} else {
		o.O.DefineGetter(name, lift(d))
	}
}

func (h *host) Prim(v Value) interp.Value {
	h.read(v.Det)
	return prim(v)
}

func (h *host) ToString(v Value) string {
	s, det := h.a.toString(v)
	h.read(det)
	return s
}

func (h *host) ToNumber(v Value) float64 {
	det := v.Det
	if v.Kind == Object {
		_, pdet := h.a.toPrimitive(v)
		det = det && pdet
	}
	h.read(det)
	return h.a.toNumber(v)
}

func (h *host) ToBool(v Value) bool {
	h.read(v.Det)
	return h.a.toBool(v)
}

func (h *host) Class(v Value) string {
	h.read(v.Det)
	if v.Kind != Object {
		return ""
	}
	return v.O.Class
}

func (h *host) StrictEquals(x, y Value) bool {
	h.read(x.Det && y.Det)
	return strictEquals(x, y)
}

func (h *host) Use(vs []Value) {
	for _, v := range vs {
		h.read(v.Det)
	}
}

func (h *host) Undefined() Value         { return Value{Kind: Undefined, Det: h.det()} }
func (h *host) Null() Value              { return Value{Kind: Null, Det: h.det()} }
func (h *host) Str(s string) Value       { return StringV(s, h.det()) }
func (h *host) Num(n float64) Value      { return NumberV(n, h.det()) }
func (h *host) Bool(b bool) Value        { return BoolV(b, h.det()) }
func (h *host) NewPlain() Value          { return ObjV(h.a.NewPlainObj(), true) }
func (h *host) Delete(o Value, k string) { h.a.deleteProp(o.O, k) }

// Get reads a cell with its own annotation: moving a value is not a read
// of it. A missing cell reads as undefined?, as in the paper's total view
// of records.
func (h *host) Get(o Value, name string) (Value, bool) {
	v, ok := h.a.getOwn(o.O, name)
	if !ok {
		return Value{Kind: Undefined}, false
	}
	return v, true
}

func (h *host) Set(o Value, name string, v Value) {
	h.a.setOwn(o.O, name, v.WithDet(h.det()))
}

func (h *host) Length(o Value) int {
	lp, ok := o.O.props["length"]
	h.read(o.Det && ok && h.a.propDet(lp))
	return h.a.arrayLength(o.O)
}

func (h *host) Elements(o Value) int {
	h.read(!h.a.IsOpen(o.O))
	return h.Length(o)
}

// Keys annotates each key with the reads up to it, so the keys before the
// first one another execution may lack stay determinate.
func (h *host) Keys(o Value) Value {
	h.read(o.Det && !h.a.IsOpen(o.O))
	elems := make([]Value, 0, len(o.O.keys))
	for _, k := range o.O.keys {
		p := o.O.props[k]
		if p.phantom || p.maybeAbsent {
			h.read(false)
		}
		if !p.phantom && (o.O.Class != "Array" || k != "length") {
			elems = append(elems, StringV(k, h.det()))
		}
	}
	return ObjV(h.a.NewArrayObj(elems), true)
}

func (h *host) HasOwn(o Value, name string) bool {
	present, det := h.a.hasOwnConcrete(o.O, name)
	h.read(det)
	return present
}

func (h *host) Lookup(o Value, name string) (Value, bool) {
	v, found, _ := h.a.lookup(o.O, name)
	return v, found
}

func (h *host) FuncName(o Value) string {
	if o.O.Fn != nil {
		return o.O.Fn.Name
	}
	return o.O.Native.Name
}

func (h *host) Proto(o Value) Value {
	if o.O.Proto == nil {
		return NullD
	}
	return ObjV(o.O.Proto, o.O.ProtoDet)
}

func (h *host) NewObject(proto Value) Value {
	var p *DObj
	if proto.Kind == Object {
		p = proto.O
	}
	o := h.a.NewObj("Object", p)
	o.ProtoDet = proto.Det
	return ObjV(o, true)
}

// NewArray allocates an array whose elements carry the reads so far.
func (h *host) NewArray(elems []Value) Value {
	det := h.det()
	o := h.a.NewObj("Array", h.a.ArrayProto)
	h.a.setRawProp(o, "length", NumberV(float64(len(elems)), true))
	for i, e := range elems {
		h.a.setRawProp(o, strconv.Itoa(i), e.WithDet(det))
	}
	return ObjV(o, true)
}

func (h *host) NewError(class, msg string) Value {
	return ObjV(h.a.NewErrorObj(class, msg, h.det()), true)
}

func (h *host) Throw(class, msg string) error {
	det := h.det()
	return &Thrown{Val: ObjV(h.a.NewErrorObj(class, msg, det), det)}
}

func (h *host) Call(fn, this Value, args []Value) (Value, error) {
	return h.a.CallFunction(fn, this, args)
}

// The indeterminate sources: reading one makes the running result
// indeterminate.

func (h *host) Random() float64 {
	h.read(false)
	return h.a.Random()
}

func (h *host) Now() float64 {
	h.read(false)
	return h.a.opts.Now
}

func (h *host) Input(name string) Value {
	h.read(false)
	if iv, ok := h.a.opts.Inputs[name]; ok {
		return fromConcrete(h.a, iv)
	}
	return Value{Kind: Undefined, Det: false}
}

func (h *host) Data(o Value) any {
	if o.Kind != Object {
		return nil
	}
	return o.O.Data
}

func (h *host) SetData(o Value, d any) { o.O.Data = d }

func (h *host) Mark(v Value, det bool) Value {
	if !det && v.Kind == Object && v.O.Class == "Array" {
		h.a.openRecord(v.O, false)
	}
	return v.WithDet(det)
}

func (h *host) Flush(reason string) { h.a.FlushHeap(reason) }

// specials are the bodies of the Special declarations, whose models no
// policy describes.
var specials = map[string]nativeFn{
	"console.log":   consoleLog,
	"console.warn":  consoleLog,
	"console.error": consoleLog,
	"console.info":  consoleLog,
	"alert":         consoleLog,
	"print":         consoleLog,
	"Function.prototype.call": func(an *Analysis, this Value, args []Value) (Value, error) {
		rest := args
		if len(rest) > 0 {
			rest = rest[1:]
		}
		return an.CallFunction(this, argAt(args, 0), rest)
	},
	"Function.prototype.apply": func(an *Analysis, this Value, args []Value) (Value, error) {
		var rest []Value
		arrDet := true
		if v := argAt(args, 1); v.Kind == Object {
			arrDet = v.Det && !an.IsOpen(v.O)
			n := an.arrayLength(v.O)
			for k := 0; k < n; k++ {
				el, _ := an.getOwn(v.O, strconv.Itoa(k))
				if !arrDet {
					el = el.Indet()
				}
				rest = append(rest, el)
			}
		}
		return an.CallFunction(this, argAt(args, 0), rest)
	},
	"eval": indirectEval,
}

// consoleLog writes console output, which is an external effect; it is
// suppressed during counterfactual execution instead of aborting it.
func consoleLog(an *Analysis, this Value, args []Value) (Value, error) {
	if !an.InCounterfactual() {
		parts := make([]string, len(args))
		for i, v := range args {
			parts[i] = an.ToDisplay(v)
		}
		fmt.Fprintln(an.opts.Out, strings.Join(parts, " "))
	}
	return UndefD, nil
}

// indirectEval evaluates in the global scope; direct eval is handled at
// call sites by execEval.
func indirectEval(an *Analysis, this Value, args []Value) (Value, error) {
	argv := argAt(args, 0)
	if argv.Kind != String {
		return argv, nil
	}
	fn, lout := an.lowerEvalFor(an.Mod.Top(), argv.S)
	if lout.kind != oNormal {
		return Value{}, &Thrown{Val: lout.val}
	}
	var bf *branchFrame
	if !argv.Det {
		bf = an.pushBranch(false)
	}
	topEnv := an.newEnv(nil, an.Mod.Top())
	env := an.newEnv(topEnv, fn)
	nf := &DFrame{Fn: fn, Env: env, Regs: make([]Value, fn.NumRegs), CallSite: -1}
	an.initSeq(nf)
	if len(an.frames) > 0 {
		parent := an.frames[len(an.frames)-1]
		nf.Ctx = parent.Ctx
		nf.ctxUnstable = parent.ctxUnstable
	}
	an.frames = append(an.frames, nf)
	out := an.execBlock(nf, fn.Body)
	an.frames = an.frames[:len(an.frames)-1]
	if bf != nil {
		an.popBranch(bf)
		an.markIndeterminate(bf)
		an.releaseBranch(bf)
		an.flushAll("eval-indet")
	}
	switch out.kind {
	case oReturn, oNormal:
		return out.val.WithDet(argv.Det), nil
	case oThrow:
		return Value{}, &Thrown{Val: out.val.WithDet(argv.Det)}
	case oCFAbort:
		return Value{}, errCFAbort
	default:
		return Value{}, out.err
	}
}

func argAt(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return UndefD
}

// fromConcrete imports a concrete input value as an indeterminate
// instrumented value (program inputs are indeterminate by definition, §2.1).
func fromConcrete(a *Analysis, v interp.Value) Value {
	switch v.Kind {
	case interp.Undefined:
		return Value{Kind: Undefined, Det: false}
	case interp.Null:
		return Value{Kind: Null, Det: false}
	case interp.Bool:
		return BoolV(v.B, false)
	case interp.Number:
		return NumberV(v.N, false)
	case interp.String:
		return StringV(v.S, false)
	default:
		// Structured inputs are imported as fresh indeterminate objects.
		o := a.NewPlainObj()
		for _, k := range v.O.OwnKeys() {
			pv, _ := v.O.Get(k)
			a.setOwn(o, k, fromConcrete(a, pv))
		}
		o.forcedOpen = true
		return ObjV(o, false)
	}
}
