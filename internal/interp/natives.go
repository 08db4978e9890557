package interp

import (
	"fmt"
	"strconv"
)

// library is the standard library over concrete values; libraryFns holds
// its natives' bodies, built once.
var (
	library    = Library[Value]()
	libraryFns = nativeFns(library)
)

func nativeFns(decls []Decl[Value]) map[*Decl[Value]]NativeFunc {
	fns := make(map[*Decl[Value]]NativeFunc, len(decls))
	for i := range decls {
		if decls[i].Kind == DeclNative {
			fns[&decls[i]] = nativeFn(&decls[i])
		}
	}
	return fns
}

// nativeFn returns the body of a native declaration.
func nativeFn(d *Decl[Value]) NativeFunc {
	if d.Policy != Special {
		return behaviour(d.Fn)
	}
	fn := specials[d.Path]
	if fn == nil {
		panic("interp: no body for special native " + d.Path)
	}
	return fn
}

func behaviour(b Behaviour[Value]) NativeFunc {
	return func(i *Interp, this Value, args []Value) (Value, error) {
		return b(host{i}, this, args)
	}
}

// setupRuntime builds the global object and the built-in prototypes, then
// installs the standard library declared in lib.go.
func (it *Interp) setupRuntime() {
	// Prototypes first; their Data field carries protoMarker so their
	// properties are treated as non-enumerable by for-in.
	it.ObjectProto = &Obj{Class: "Object", Data: protoMarker}
	it.FunctionProto = &Obj{Class: "Object", Proto: it.ObjectProto, Data: protoMarker}
	it.ArrayProto = &Obj{Class: "Object", Proto: it.ObjectProto, Data: protoMarker}
	it.StringProto = &Obj{Class: "Object", Proto: it.ObjectProto, Data: protoMarker}
	it.NumberProto = &Obj{Class: "Object", Proto: it.ObjectProto, Data: protoMarker}
	it.BooleanProto = &Obj{Class: "Object", Proto: it.ObjectProto, Data: protoMarker}
	it.ErrorProto = &Obj{Class: "Object", Proto: it.ObjectProto, Data: protoMarker}
	it.Global = it.NewObject(it.ObjectProto)

	Install(it.Realm(), library, map[string]Value{
		"Object.prototype":   ObjVal(it.ObjectProto),
		"Function.prototype": ObjVal(it.FunctionProto),
		"Array.prototype":    ObjVal(it.ArrayProto),
		"String.prototype":   ObjVal(it.StringProto),
		"Number.prototype":   ObjVal(it.NumberProto),
		"Boolean.prototype":  ObjVal(it.BooleanProto),
		"Error.prototype":    ObjVal(it.ErrorProto),
	})
}

// Realm exposes the interpreter's heap to declarations (lib.go, the DOM).
func (it *Interp) Realm() Realm[Value] { return host{it} }

// specials are the bodies of the Special declarations.
var specials = map[string]NativeFunc{
	"console.log":   consoleLog,
	"console.warn":  consoleLog,
	"console.error": consoleLog,
	"console.info":  consoleLog,
	"alert":         consoleLog,
	"print":         consoleLog,
	"Function.prototype.call": func(i *Interp, this Value, args []Value) (Value, error) {
		rest := args
		if len(rest) > 0 {
			rest = rest[1:]
		}
		return i.CallFunction(this, arg(args, 0), rest)
	},
	"Function.prototype.apply": func(i *Interp, this Value, args []Value) (Value, error) {
		var rest []Value
		if a := arg(args, 1); a.Kind == Object {
			n := a.O.ArrayLength()
			for k := 0; k < n; k++ {
				el, _ := a.O.Get(strconv.Itoa(k))
				rest = append(rest, el)
			}
		}
		return i.CallFunction(this, arg(args, 0), rest)
	},
	"eval": indirectEval,
}

func consoleLog(i *Interp, this Value, args []Value) (Value, error) {
	fmt.Fprintln(i.Out(), FormatArgs(args))
	return UndefinedVal, nil
}

// indirectEval handles calls of eval that are not direct (e.g. var e =
// eval; e("...")), which evaluate in the global scope.
func indirectEval(i *Interp, this Value, args []Value) (Value, error) {
	a := arg(args, 0)
	if a.Kind != String {
		return a, nil
	}
	fn, lout := i.lowerEvalFor(i.Mod.Top(), a.S)
	if lout.kind != oNormal {
		return UndefinedVal, &Thrown{Val: lout.val}
	}
	env := &Env{Parent: &Env{Slots: nil, Fn: i.Mod.Top()}, Slots: make([]Value, fn.NumSlots), Fn: fn}
	nf := &Frame{Fn: fn, Env: env, Regs: make([]Value, fn.NumRegs), CallSite: -1}
	i.pushFrame(nf)
	out := i.execBlock(nf, fn.Body)
	i.popFrame()
	switch out.kind {
	case oReturn, oNormal:
		return out.val, nil
	case oThrow:
		return UndefinedVal, &Thrown{Val: out.val}
	default:
		return UndefinedVal, out.err
	}
}

// host runs declared behaviours directly over concrete values.
type host struct{ it *Interp }

func (h host) Global() Value { return ObjVal(h.it.Global) }

func (h host) Native(name string, d *Decl[Value]) Value {
	fn, ok := libraryFns[d]
	if !ok {
		fn = nativeFn(d)
	}
	o := h.it.NewNative(name, fn)
	o.Native.IsEval = d.Path == "eval"
	return ObjVal(o)
}

func (h host) Accessor(o Value, name string, d *Decl[Value]) {
	if d.Kind == DeclSetter {
		o.O.DefineSetter(name, behaviour(d.Fn))
	} else {
		o.O.DefineGetter(name, behaviour(d.Fn))
	}
}

func (h host) Prim(v Value) Value           { return v }
func (h host) ToString(v Value) string      { return ToString(v) }
func (h host) ToNumber(v Value) float64     { return ToNumber(v) }
func (h host) ToBool(v Value) bool          { return ToBool(v) }
func (h host) StrictEquals(x, y Value) bool { return StrictEquals(x, y) }
func (h host) Use([]Value)                  {}

func (h host) Class(v Value) string {
	if v.Kind != Object {
		return ""
	}
	return v.O.Class
}

func (h host) Undefined() Value         { return UndefinedVal }
func (h host) Null() Value              { return NullVal }
func (h host) Str(s string) Value       { return StringVal(s) }
func (h host) Num(n float64) Value      { return NumberVal(n) }
func (h host) Bool(b bool) Value        { return BoolVal(b) }
func (h host) Length(o Value) int       { return o.O.ArrayLength() }
func (h host) Elements(o Value) int     { return o.O.ArrayLength() }
func (h host) Delete(o Value, k string) { o.O.Delete(k) }

func (h host) Keys(o Value) Value {
	elems := make([]Value, 0, len(o.O.Keys()))
	for _, k := range o.O.Keys() {
		if o.O.Class != "Array" || k != "length" {
			elems = append(elems, StringVal(k))
		}
	}
	return h.NewArray(elems)
}

func (h host) Get(o Value, name string) (Value, bool) { return o.O.Get(name) }
func (h host) Set(o Value, name string, v Value)      { o.O.Set(name, v) }

func (h host) HasOwn(o Value, name string) bool {
	_, ok := o.O.Get(name)
	return ok
}

func (h host) Lookup(o Value, name string) (Value, bool) { return o.O.Lookup(name) }

func (h host) FuncName(o Value) string {
	if o.O.Fn != nil {
		return o.O.Fn.Name
	}
	return o.O.Native.Name
}

func (h host) Proto(o Value) Value {
	if o.O.Proto == nil {
		return NullVal
	}
	return ObjVal(o.O.Proto)
}

func (h host) NewPlain() Value { return ObjVal(h.it.NewPlain()) }

func (h host) NewObject(proto Value) Value {
	var p *Obj
	if proto.Kind == Object {
		p = proto.O
	}
	return ObjVal(h.it.NewObject(p))
}

func (h host) NewArray(elems []Value) Value     { return ObjVal(h.it.NewArray(elems)) }
func (h host) NewError(class, msg string) Value { return ObjVal(h.it.NewError(class, msg)) }
func (h host) Throw(class, msg string) error    { return &Thrown{Val: h.NewError(class, msg)} }

func (h host) Call(fn, this Value, args []Value) (Value, error) {
	return h.it.CallFunction(fn, this, args)
}

func (h host) Random() float64         { return h.it.Random() }
func (h host) Now() float64            { return h.it.opts.Now }
func (h host) Input(name string) Value { return h.it.Input(name) }

func (h host) Data(o Value) any {
	if o.Kind != Object {
		return nil
	}
	return o.O.Data
}

func (h host) SetData(o Value, d any)       { o.O.Data = d }
func (h host) Mark(v Value, det bool) Value { return v }
func (h host) Flush(string)                 {}

func arg(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return UndefinedVal
}
