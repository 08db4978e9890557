package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The native library is declared once, as data: every built-in binding
// names its path, its concrete behaviour and its determinacy policy (§4 of
// the paper treats each native as a concrete behaviour plus a determinacy
// model). Behaviours are written against Host, which both heaps implement:
// this package runs them directly over concrete values, and internal/core
// lifts each one into annotated values by its Policy.

// Policy is a native's determinacy model.
type Policy uint8

const (
	// Determinate: the result is determinate iff everything the behaviour
	// reads through Host is — the receiver and arguments it inspects, the
	// heap cells and array extents it reads. Enumerating the keys or
	// elements of an open record is indeterminate.
	Determinate Policy = iota
	// Source: an indeterminate program input (Math.random, Date.now,
	// __input); the result is always indeterminate.
	Source
	// DOMRead: reads host (DOM) state. Host values are determinate only
	// under the deterministic-DOM assumption (the binding annotates them).
	DOMRead
	// External: changes host state outside the instrumented heap (a DOM
	// call or accessor setter); like DOMRead, and in addition aborts
	// counterfactual execution, whose journal cannot undo the effect.
	External
	// Special: eval, Function.prototype.call/apply and console output,
	// which no policy describes; each interpreter supplies its own body.
	Special
)

func (p Policy) String() string {
	switch p {
	case Determinate:
		return "determinate"
	case Source:
		return "indeterminate source"
	case DOMRead:
		return "DOM read"
	case External:
		return "external (aborts counterfactuals)"
	case Special:
		return "special"
	}
	return "?"
}

// Result refines how the Determinate policy annotates a result that does
// not depend on everything the behaviour read.
type Result uint8

const (
	// ResultComputed: the result is as determinate as the reads.
	ResultComputed Result = iota
	// ResultVoid: the result is always the determinate undefined.
	ResultVoid
	// ResultFresh: an object the call allocates is a determinate
	// reference; its contents carry the reads' determinacy.
	ResultFresh
)

// DeclKind says what a declaration binds.
type DeclKind uint8

const (
	DeclNative DeclKind = iota // a native function (Fn, or Special)
	DeclGetter                 // an accessor property's getter (Fn)
	DeclSetter                 // an accessor property's setter (Fn)
	DeclObject                 // a fresh plain object (a namespace such as Math)
	DeclProto                  // a built-in prototype (Proto names its root)
	DeclGlobal                 // the global object itself
	DeclValue                  // a value computed at installation (Init)
)

// Behaviour is a native's concrete semantics.
type Behaviour[V any] func(h Host[V], this V, args []V) (V, error)

// Decl declares one binding.
type Decl[V any] struct {
	// Path is the binding's property path from the global object
	// ("parseInt", "Math.floor", "Array.prototype.push"); its last segment
	// names the property and the function.
	Path   string
	Kind   DeclKind
	Policy Policy
	Result Result

	Fn    Behaviour[V]
	Proto string // the root path of a DeclProto ("Object.prototype")
	Init  func(h Host[V]) V
}

// Host is the value and heap model a behaviour runs against. Values of
// type V are opaque: a behaviour moves them, and inspects them only
// through Host. Under the instrumented semantics every inspection is a
// read that the Determinate policy folds into the result's annotation;
// moving a value keeps its own annotation.
type Host[V any] interface {
	// Prim reads v's kind and primitive payload (objects read as Kind
	// Object and nothing else).
	Prim(v V) Value
	ToString(v V) string
	ToNumber(v V) float64
	ToBool(v V) bool
	// Class reads v's object class ("Array", "Function", ...), or "" for a
	// primitive.
	Class(v V) string
	StrictEquals(x, y V) bool
	// Use declares that the result depends on vs without inspecting them.
	Use(vs []V)

	Undefined() V
	Null() V
	Str(s string) V
	Num(n float64) V
	Bool(b bool) V

	// Get reads an own property, reporting whether it exists.
	Get(o V, name string) (V, bool)
	Set(o V, name string, v V)
	Delete(o V, name string)
	// Length reads an array-like's length.
	Length(o V) int
	// Elements reads the length for a traversal of every element: in an
	// open record, another execution may hold elements this one lacks.
	Elements(o V) int
	// Keys returns a new array of o's own keys in insertion order; an
	// array's length is not one of them. Under the instrumented semantics
	// a key is determinate only while the enumeration up to it is: a key
	// another execution may lack makes itself and every later key
	// indeterminate, and so the enumeration as a whole.
	Keys(o V) V
	HasOwn(o V, name string) bool
	// Lookup reads a property along o's prototype chain.
	Lookup(o V, name string) (V, bool)
	// FuncName reads a function object's name.
	FuncName(o V) string
	// Proto reads o's prototype (null at the end of the chain).
	Proto(o V) V
	NewPlain() V
	// NewObject allocates an object whose prototype is proto (none when
	// proto is not an object).
	NewObject(proto V) V
	NewArray(elems []V) V
	NewError(class, msg string) V
	// Throw returns the error that throws a new class error.
	Throw(class, msg string) error
	Call(fn, this V, args []V) (V, error)

	// Indeterminate sources.
	Random() float64
	Now() float64
	Input(name string) V

	// Host state links (the DOM).
	Data(o V) any
	SetData(o V, d any)
	// Mark annotates v with det (the instrumented heap's v^d). An array
	// marked indeterminate is host data throughout: its record is opened
	// and its cells made indeterminate.
	Mark(v V, det bool) V
	// Flush performs a heap flush, e.g. on entry to an event handler.
	Flush(reason string)
}

// Realm is what installing declarations needs beyond Host.
type Realm[V any] interface {
	Host[V]
	Global() V
	// Native returns the function object for d, named name.
	Native(name string, d *Decl[V]) V
	// Accessor installs d's behaviour as the getter or setter of
	// property name of o.
	Accessor(o V, name string, d *Decl[V])
}

// Install defines decls in order. A declaration's holder is the root
// object of that path when roots has one (the built-in prototypes), and
// otherwise is reached from the global object through bindings already
// installed; consecutive declarations on one holder resolve it once.
func Install[V any](r Realm[V], decls []Decl[V], roots map[string]V) {
	global := r.Global()
	holderPath, holder := "", global
	for i := range decls {
		d := &decls[i]
		name := d.Path
		if dot := strings.LastIndexByte(d.Path, '.'); dot < 0 {
			holderPath, holder = "", global
		} else {
			if d.Path[:dot] != holderPath {
				holderPath, holder = d.Path[:dot], resolve(r, roots, d.Path[:dot])
			}
			name = d.Path[dot+1:]
		}
		var v V
		switch d.Kind {
		case DeclNative:
			v = r.Native(name, d)
		case DeclGetter, DeclSetter:
			r.Accessor(holder, name, d)
			continue
		case DeclObject:
			v = r.NewPlain()
		case DeclProto:
			v = roots[d.Proto]
		case DeclGlobal:
			v = global
		case DeclValue:
			v = d.Init(r)
		}
		r.Set(holder, name, v)
	}
}

func resolve[V any](r Realm[V], roots map[string]V, path string) V {
	if v, ok := roots[path]; ok {
		return v
	}
	v := r.Global()
	for seg, rest, more := "", path, true; more; {
		seg, rest, more = strings.Cut(rest, ".")
		v, _ = r.Get(v, seg)
	}
	return v
}

// constant declares a primitive constant.
func constant[V any](path string, p Value) Decl[V] {
	return Decl[V]{Path: path, Kind: DeclValue, Init: func(h Host[V]) V {
		switch p.Kind {
		case Null:
			return h.Null()
		case Bool:
			return h.Bool(p.B)
		case Number:
			return h.Num(p.N)
		case String:
			return h.Str(p.S)
		}
		return h.Undefined()
	}}
}

// ToPrimitive converts an object by the built-in behaviour of arrays
// (their join), functions and errors; any other object comes back as it
// is, and callers read it as "[object Object]" or NaN. User-defined
// toString/valueOf are not modeled (§4 makes the same exclusion).
func ToPrimitive[V any](h Host[V], v V) V {
	switch h.Class(v) {
	case "Array":
		return h.Str(join(h, v, ","))
	case "Function":
		return h.Str("function " + h.FuncName(v) + "() { [native or user code] }")
	case "Error":
		s, msg := "Error", ""
		if name, ok := h.Lookup(v, "name"); ok {
			s = h.ToString(name)
		}
		if m, ok := h.Lookup(v, "message"); ok {
			msg = h.ToString(m)
		}
		if msg != "" {
			s += ": " + msg
		}
		return h.Str(s)
	}
	return v
}

// join renders the elements of an array-like separated by sep; holes,
// undefined and null render empty.
func join[V any](h Host[V], o V, sep string) string {
	n := h.Elements(o)
	parts := make([]string, 0, n)
	for k := 0; k < n; k++ {
		el, ok := h.Get(o, strconv.Itoa(k))
		if !ok {
			parts = append(parts, "")
			continue
		}
		if p := h.Prim(el); p.Kind == Undefined || p.Kind == Null {
			parts = append(parts, "")
			continue
		}
		parts = append(parts, h.ToString(el))
	}
	return strings.Join(parts, sep)
}

// Arg returns argument i, or undefined when absent.
func Arg[V any](h Host[V], args []V, i int) V {
	if i < len(args) {
		return args[i]
	}
	return h.Undefined()
}

// PolicyTable renders the functions and accessors among decls as a
// Markdown table of paths and determinacy policies.
func PolicyTable[V any](decls []Decl[V]) string {
	var b strings.Builder
	b.WriteString("| Binding | Policy |\n|---|---|\n")
	for _, d := range decls {
		kind := ""
		switch {
		case d.Kind == DeclGetter:
			kind = " (getter)"
		case d.Kind == DeclSetter:
			kind = " (setter)"
		case d.Kind != DeclNative:
			continue
		}
		policy := d.Policy.String()
		switch d.Result {
		case ResultVoid:
			policy += "; returns determinate undefined"
		case ResultFresh:
			policy += "; a fresh object is a determinate reference"
		}
		fmt.Fprintf(&b, "| `%s`%s | %s |\n", d.Path, kind, policy)
	}
	return b.String()
}

// Library declares the standard library in installation order. The order
// is part of the contract: it fixes allocation numbers and the key order
// of the global object, which facts and for-in observe.
func Library[V any]() []Decl[V] {
	num1 := func(f func(float64) float64) Behaviour[V] {
		return func(h Host[V], this V, args []V) (V, error) {
			return h.Num(f(h.ToNumber(Arg(h, args, 0)))), nil
		}
	}
	minmax := func(init float64, pick func(x, y float64) float64) Behaviour[V] {
		return func(h Host[V], this V, args []V) (V, error) {
			r := init
			for _, v := range args {
				n := h.ToNumber(v)
				if math.IsNaN(n) {
					return h.Num(math.NaN()), nil
				}
				r = pick(r, n)
			}
			return h.Num(r), nil
		}
	}
	// str lifts a string method: it reads the receiver as a string and
	// depends on every argument.
	str := func(f func(h Host[V], s string, args []V) V) Behaviour[V] {
		return func(h Host[V], this V, args []V) (V, error) {
			s := h.ToString(this)
			h.Use(args)
			return f(h, s, args), nil
		}
	}
	// arrayOp guards array methods against primitive receivers.
	arrayOp := func(none func(h Host[V]) V, f Behaviour[V]) Behaviour[V] {
		return func(h Host[V], this V, args []V) (V, error) {
			if h.Prim(this).Kind != Object {
				return none(h), nil
			}
			return f(h, this, args)
		}
	}
	undef := func(h Host[V]) V { return h.Undefined() }
	empty := func(h Host[V]) V { return h.NewArray(nil) }
	// each calls fn(element, index, array) for every index below the
	// array's length, stopping at the first error.
	each := func(h Host[V], this, fn V, visit func(el, res V)) error {
		n := h.Length(this)
		for k := 0; k < n; k++ {
			el, _ := h.Get(this, strconv.Itoa(k))
			res, err := h.Call(fn, h.Undefined(), []V{el, h.Num(float64(k)), this})
			if err != nil {
				return err
			}
			visit(el, res)
		}
		return nil
	}
	errCtor := func(class string) Behaviour[V] {
		return func(h Host[V], this V, args []V) (V, error) {
			msg := ""
			if v := Arg(h, args, 0); h.Prim(v).Kind != Undefined {
				msg = h.ToString(v)
			}
			return h.NewError(class, msg), nil
		}
	}
	errorClasses := []string{"Error", "TypeError", "ReferenceError", "RangeError", "SyntaxError"}

	decls := []Decl[V]{
		{Path: "globalThis", Kind: DeclGlobal},
		constant[V]("undefined", UndefinedVal),
		constant[V]("NaN", NumberVal(math.NaN())),
		constant[V]("Infinity", NumberVal(math.Inf(1))),

		{Path: "console", Kind: DeclObject},
		{Path: "console.log", Policy: Special},
		{Path: "console.warn", Policy: Special},
		{Path: "console.error", Policy: Special},
		{Path: "console.info", Policy: Special},
		// alert, as used in the paper's Figure 3.
		{Path: "alert", Policy: Special},
		{Path: "print", Policy: Special},

		{Path: "Math", Kind: DeclObject},
		{Path: "Math.abs", Fn: num1(math.Abs)},
		{Path: "Math.floor", Fn: num1(math.Floor)},
		{Path: "Math.ceil", Fn: num1(math.Ceil)},
		{Path: "Math.sqrt", Fn: num1(math.Sqrt)},
		{Path: "Math.sin", Fn: num1(math.Sin)},
		{Path: "Math.cos", Fn: num1(math.Cos)},
		{Path: "Math.log", Fn: num1(math.Log)},
		{Path: "Math.exp", Fn: num1(math.Exp)},
		{Path: "Math.round", Fn: num1(round)},
		{Path: "Math.pow", Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.Num(math.Pow(h.ToNumber(Arg(h, args, 0)), h.ToNumber(Arg(h, args, 1)))), nil
		}},
		{Path: "Math.min", Fn: minmax(math.Inf(1), math.Min)},
		{Path: "Math.max", Fn: minmax(math.Inf(-1), math.Max)},
		// Math.random is the canonical indeterminate source (§2.1).
		{Path: "Math.random", Policy: Source, Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.Num(h.Random()), nil
		}},
		constant[V]("Math.PI", NumberVal(math.Pi)),
		constant[V]("Math.E", NumberVal(math.E)),

		{Path: "Object", Result: ResultFresh, Fn: func(h Host[V], this V, args []V) (V, error) {
			if v := Arg(h, args, 0); h.Prim(v).Kind == Object {
				return v, nil
			}
			return h.NewPlain(), nil
		}},
		{Path: "Object.prototype", Kind: DeclProto, Proto: "Object.prototype"},
		{Path: "Object.keys", Fn: func(h Host[V], this V, args []V) (V, error) {
			v := Arg(h, args, 0)
			if h.Prim(v).Kind != Object {
				return h.Undefined(), h.Throw("TypeError", "Object.keys requires an object")
			}
			return h.Keys(v), nil
		}},
		{Path: "Object.getPrototypeOf", Fn: func(h Host[V], this V, args []V) (V, error) {
			if v := Arg(h, args, 0); h.Prim(v).Kind == Object {
				return h.Proto(v), nil
			}
			return h.Null(), nil
		}},
		{Path: "Object.create", Result: ResultFresh, Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.NewObject(Arg(h, args, 0)), nil
		}},
		{Path: "Object.prototype.hasOwnProperty", Fn: func(h Host[V], this V, args []V) (V, error) {
			if h.Prim(this).Kind != Object {
				return h.Bool(false), nil
			}
			return h.Bool(h.HasOwn(this, h.ToString(Arg(h, args, 0)))), nil
		}},
		{Path: "Object.prototype.toString", Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.Str(h.ToString(this)), nil
		}},

		{Path: "Function", Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.Undefined(), h.Throw("TypeError", "the Function constructor is not supported; use eval")
		}},
		{Path: "Function.prototype", Kind: DeclProto, Proto: "Function.prototype"},
		{Path: "Function.prototype.call", Policy: Special},
		{Path: "Function.prototype.apply", Policy: Special},

		{Path: "Array", Result: ResultFresh, Fn: func(h Host[V], this V, args []V) (V, error) {
			if len(args) == 1 && h.Prim(args[0]).Kind == Number {
				a := h.NewArray(nil)
				h.Set(a, "length", args[0])
				return a, nil
			}
			return h.NewArray(args), nil
		}},
		{Path: "Array.prototype", Kind: DeclProto, Proto: "Array.prototype"},
		{Path: "Array.isArray", Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.Bool(h.Class(Arg(h, args, 0)) == "Array"), nil
		}},
		{Path: "Array.prototype.push", Fn: arrayOp(undef, func(h Host[V], this V, args []V) (V, error) {
			n := h.Length(this)
			for _, v := range args {
				h.Set(this, strconv.Itoa(n), v)
				n++
			}
			h.Set(this, "length", h.Num(float64(n)))
			return h.Num(float64(n)), nil
		})},
		{Path: "Array.prototype.pop", Fn: arrayOp(undef, func(h Host[V], this V, args []V) (V, error) {
			n := h.Length(this)
			if n == 0 {
				return h.Undefined(), nil
			}
			last := strconv.Itoa(n - 1)
			v, _ := h.Get(this, last)
			h.Delete(this, last)
			h.Set(this, "length", h.Num(float64(n-1)))
			return v, nil
		})},
		{Path: "Array.prototype.join", Fn: func(h Host[V], this V, args []V) (V, error) {
			sep := ","
			if v := Arg(h, args, 0); h.Prim(v).Kind != Undefined {
				sep = h.ToString(v)
			}
			if h.Prim(this).Kind != Object {
				return h.Str(""), nil
			}
			return h.Str(join(h, this, sep)), nil
		}},
		{Path: "Array.prototype.indexOf", Fn: arrayOp(
			func(h Host[V]) V { return h.Num(-1) },
			func(h Host[V], this V, args []V) (V, error) {
				// The search element decides the answer even when the
				// array is empty; fromIndex is not supported.
				h.Use(args[:min(len(args), 1)])
				target := Arg(h, args, 0)
				n := h.Elements(this)
				for k := 0; k < n; k++ {
					// Holes are skipped (ES5 15.4.4.14 tests HasProperty).
					if el, ok := h.Get(this, strconv.Itoa(k)); ok && h.StrictEquals(el, target) {
						return h.Num(float64(k)), nil
					}
				}
				return h.Num(-1), nil
			})},
		{Path: "Array.prototype.slice", Fn: arrayOp(empty, func(h Host[V], this V, args []V) (V, error) {
			h.Use(args)
			n := h.Length(this)
			start, end := 0, n
			if v := Arg(h, args, 0); h.Prim(v).Kind != Undefined {
				start = clampIndex(toInteger(h.ToNumber(v)), n)
			}
			if v := Arg(h, args, 1); h.Prim(v).Kind != Undefined {
				end = clampIndex(toInteger(h.ToNumber(v)), n)
			}
			var elems []V
			for k := start; k < end; k++ {
				el, _ := h.Get(this, strconv.Itoa(k))
				elems = append(elems, el)
			}
			return h.NewArray(elems), nil
		})},
		{Path: "Array.prototype.concat", Fn: func(h Host[V], this V, args []V) (V, error) {
			var elems []V
			add := func(v V) {
				if h.Class(v) != "Array" {
					elems = append(elems, v)
					return
				}
				n := h.Elements(v)
				for k := 0; k < n; k++ {
					el, _ := h.Get(v, strconv.Itoa(k))
					elems = append(elems, el)
				}
			}
			add(this)
			for _, v := range args {
				add(v)
			}
			return h.NewArray(elems), nil
		}},
		{Path: "Array.prototype.forEach", Result: ResultVoid, Fn: arrayOp(undef, func(h Host[V], this V, args []V) (V, error) {
			return h.Undefined(), each(h, this, Arg(h, args, 0), func(el, res V) {})
		})},
		{Path: "Array.prototype.map", Fn: arrayOp(empty, func(h Host[V], this V, args []V) (V, error) {
			h.Use(args)
			var elems []V
			if err := each(h, this, Arg(h, args, 0), func(el, res V) { elems = append(elems, res) }); err != nil {
				return h.Undefined(), err
			}
			return h.NewArray(elems), nil
		})},
		{Path: "Array.prototype.filter", Fn: arrayOp(empty, func(h Host[V], this V, args []V) (V, error) {
			h.Use(args)
			var elems []V
			if err := each(h, this, Arg(h, args, 0), func(el, res V) {
				if h.ToBool(res) {
					elems = append(elems, el)
				}
			}); err != nil {
				return h.Undefined(), err
			}
			return h.NewArray(elems), nil
		})},
		{Path: "Array.prototype.shift", Fn: arrayOp(undef, func(h Host[V], this V, args []V) (V, error) {
			n := h.Length(this)
			if n == 0 {
				return h.Undefined(), nil
			}
			first, _ := h.Get(this, "0")
			for k := 1; k < n; k++ {
				if v, ok := h.Get(this, strconv.Itoa(k)); ok {
					h.Set(this, strconv.Itoa(k-1), v)
				} else {
					h.Delete(this, strconv.Itoa(k-1))
				}
			}
			h.Delete(this, strconv.Itoa(n-1))
			h.Set(this, "length", h.Num(float64(n-1)))
			return first, nil
		})},

		{Path: "String", Fn: func(h Host[V], this V, args []V) (V, error) {
			if len(args) == 0 {
				return h.Str(""), nil
			}
			return h.Str(h.ToString(args[0])), nil
		}},
		{Path: "String.prototype", Kind: DeclProto, Proto: "String.prototype"},
		{Path: "String.fromCharCode", Fn: func(h Host[V], this V, args []V) (V, error) {
			var b strings.Builder
			for _, v := range args {
				b.WriteRune(rune(int(h.ToNumber(v))))
			}
			return h.Str(b.String()), nil
		}},
		{Path: "String.prototype.charAt", Fn: str(func(h Host[V], s string, args []V) V {
			k := toInteger(h.ToNumber(Arg(h, args, 0)))
			if k < 0 || k >= len(s) {
				return h.Str("")
			}
			return h.Str(string(s[k]))
		})},
		{Path: "String.prototype.charCodeAt", Fn: str(func(h Host[V], s string, args []V) V {
			k := toInteger(h.ToNumber(Arg(h, args, 0)))
			if k < 0 || k >= len(s) {
				return h.Num(math.NaN())
			}
			return h.Num(float64(s[k]))
		})},
		{Path: "String.prototype.indexOf", Fn: str(func(h Host[V], s string, args []V) V {
			sub := h.ToString(Arg(h, args, 0))
			start := position(h.ToNumber(Arg(h, args, 1)), 0, len(s))
			i := strings.Index(s[start:], sub)
			if i >= 0 {
				i += start
			}
			return h.Num(float64(i))
		})},
		{Path: "String.prototype.lastIndexOf", Fn: str(func(h Host[V], s string, args []V) V {
			sub := h.ToString(Arg(h, args, 0))
			end := position(h.ToNumber(Arg(h, args, 1)), len(s), len(s)) + len(sub)
			if end > len(s) {
				end = len(s)
			}
			return h.Num(float64(strings.LastIndex(s[:end], sub)))
		})},
		{Path: "String.prototype.toUpperCase", Fn: str(func(h Host[V], s string, args []V) V {
			return h.Str(strings.ToUpper(s))
		})},
		{Path: "String.prototype.toLowerCase", Fn: str(func(h Host[V], s string, args []V) V {
			return h.Str(strings.ToLower(s))
		})},
		{Path: "String.prototype.trim", Fn: str(func(h Host[V], s string, args []V) V {
			return h.Str(strings.TrimSpace(s))
		})},
		{Path: "String.prototype.substring", Fn: str(func(h Host[V], s string, args []V) V {
			x := position(h.ToNumber(Arg(h, args, 0)), 0, len(s))
			y := len(s)
			if v := Arg(h, args, 1); h.Prim(v).Kind != Undefined {
				y = position(h.ToNumber(v), 0, len(s))
			}
			if x > y {
				x, y = y, x
			}
			return h.Str(s[x:y])
		})},
		{Path: "String.prototype.substr", Fn: str(func(h Host[V], s string, args []V) V {
			start := toInteger(h.ToNumber(Arg(h, args, 0)))
			if start < 0 {
				start = max(start+len(s), 0)
			}
			if start > len(s) {
				return h.Str("")
			}
			n := len(s) - start
			if v := Arg(h, args, 1); h.Prim(v).Kind != Undefined {
				n = toInteger(h.ToNumber(v))
			}
			n = min(max(n, 0), len(s)-start)
			return h.Str(s[start : start+n])
		})},
		{Path: "String.prototype.slice", Fn: str(func(h Host[V], s string, args []V) V {
			x, y := 0, len(s)
			if v := Arg(h, args, 0); h.Prim(v).Kind != Undefined {
				x = clampIndex(toInteger(h.ToNumber(v)), len(s))
			}
			if v := Arg(h, args, 1); h.Prim(v).Kind != Undefined {
				y = clampIndex(toInteger(h.ToNumber(v)), len(s))
			}
			return h.Str(s[x:max(x, y)])
		})},
		{Path: "String.prototype.split", Fn: str(func(h Host[V], s string, args []V) V {
			parts := []string{s}
			if sepv := Arg(h, args, 0); h.Prim(sepv).Kind != Undefined {
				if sep := h.ToString(sepv); sep == "" {
					parts = parts[:0]
					for _, c := range s {
						parts = append(parts, string(c))
					}
				} else {
					parts = strings.Split(s, sep)
				}
			}
			if lim := Arg(h, args, 1); h.Prim(lim).Kind != Undefined {
				if n := ToUint32(NumberVal(h.ToNumber(lim))); uint64(n) < uint64(len(parts)) {
					parts = parts[:n]
				}
			}
			elems := make([]V, len(parts))
			for k, part := range parts {
				elems[k] = h.Str(part)
			}
			return h.NewArray(elems)
		})},
		{Path: "String.prototype.replace", Fn: str(func(h Host[V], s string, args []V) V {
			pat := h.ToString(Arg(h, args, 0))
			return h.Str(strings.Replace(s, pat, h.ToString(Arg(h, args, 1)), 1))
		})},
		{Path: "String.prototype.concat", Fn: str(func(h Host[V], s string, args []V) V {
			var b strings.Builder
			b.WriteString(s)
			for _, v := range args {
				b.WriteString(h.ToString(v))
			}
			return h.Str(b.String())
		})},
		{Path: "String.prototype.toString", Fn: str(func(h Host[V], s string, args []V) V {
			return h.Str(s)
		})},

		{Path: "Number", Fn: func(h Host[V], this V, args []V) (V, error) {
			if len(args) == 0 {
				return h.Num(0), nil
			}
			return h.Num(h.ToNumber(args[0])), nil
		}},
		{Path: "Number.prototype", Kind: DeclProto, Proto: "Number.prototype"},
		constant[V]("Number.MAX_VALUE", NumberVal(math.MaxFloat64)),
		constant[V]("Number.MIN_VALUE", NumberVal(5e-324)),
		{Path: "Number.prototype.toString", Fn: func(h Host[V], this V, args []V) (V, error) {
			n := h.ToNumber(this)
			h.Use(args)
			if v := Arg(h, args, 0); h.Prim(v).Kind != Undefined {
				radix := int(h.ToNumber(v))
				if radix >= 2 && radix <= 36 && n == math.Trunc(n) {
					return h.Str(strconv.FormatInt(int64(n), radix)), nil
				}
			}
			return h.Str(ToString(NumberVal(n))), nil
		}},
		{Path: "Number.prototype.toFixed", Fn: func(h Host[V], this V, args []V) (V, error) {
			n := h.ToNumber(this)
			h.Use(args)
			if math.Abs(n) >= 1e21 {
				return h.Str(ToString(NumberVal(n))), nil
			}
			return h.Str(strconv.FormatFloat(n, 'f', int(h.ToNumber(Arg(h, args, 0))), 64)), nil
		}},
		{Path: "Boolean", Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.Bool(h.ToBool(Arg(h, args, 0))), nil
		}},
		{Path: "Boolean.prototype", Kind: DeclProto, Proto: "Boolean.prototype"},

		constant[V]("Error.prototype.name", StringVal("Error")),
		constant[V]("Error.prototype.message", StringVal("")),
		{Path: "Error.prototype.toString", Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.Str(h.ToString(this)), nil
		}},
	}
	for _, class := range errorClasses {
		decls = append(decls,
			Decl[V]{Path: class, Result: ResultFresh, Fn: errCtor(class)},
			Decl[V]{Path: class + ".prototype", Kind: DeclProto, Proto: "Error.prototype"})
	}
	return append(decls, []Decl[V]{
		{Path: "parseInt", Fn: func(h Host[V], this V, args []V) (V, error) {
			s := h.ToString(Arg(h, args, 0))
			h.Use(args)
			radix := 0
			if v := Arg(h, args, 1); h.Prim(v).Kind != Undefined {
				radix = int(ToInt32(NumberVal(h.ToNumber(v))))
			}
			return h.Num(parseInt(s, radix)), nil
		}},
		{Path: "parseFloat", Fn: func(h Host[V], this V, args []V) (V, error) {
			s := h.ToString(Arg(h, args, 0))
			h.Use(args)
			return h.Num(parseFloat(s)), nil
		}},
		{Path: "isNaN", Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.Bool(math.IsNaN(h.ToNumber(Arg(h, args, 0)))), nil
		}},
		{Path: "isFinite", Fn: func(h Host[V], this V, args []V) (V, error) {
			n := h.ToNumber(Arg(h, args, 0))
			return h.Bool(!math.IsNaN(n) && !math.IsInf(n, 0)), nil
		}},
		// Direct eval is special-cased at call sites; the body handles the
		// indirect call, which evaluates in the global scope.
		{Path: "eval", Policy: Special},
		// Date: the constructor records the configured instant, which is
		// indeterminate; the object itself is fresh.
		{Path: "Date", Result: ResultFresh, Fn: func(h Host[V], this V, args []V) (V, error) {
			o := h.NewPlain()
			h.Set(o, "__time", h.Num(h.Now()))
			return o, nil
		}},
		{Path: "Date.now", Policy: Source, Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.Num(h.Now()), nil
		}},
		// __observe(label, value) is a no-op marker for generated test
		// programs: the facts come from evaluating its arguments.
		{Path: "__observe", Result: ResultVoid, Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.Undefined(), nil
		}},
		// __input(name) reads a configured program input, the generic
		// indeterminate source.
		{Path: "__input", Policy: Source, Fn: func(h Host[V], this V, args []V) (V, error) {
			return h.Input(h.ToString(Arg(h, args, 0))), nil
		}},
	}...)
}

// round is Math.round (ES5 15.8.2.15): halves round up, and -0.5 ≤ x < 0
// rounds to -0.
func round(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
		return x
	}
	if x < 0 && x >= -0.5 {
		return math.Copysign(0, -1)
	}
	r := math.Floor(x)
	if x-r >= 0.5 {
		r++
	}
	return r
}

// position converts a string position argument (ES5 ToInteger, clamped
// to [0, n]); NaN and undefined give def.
func position(p float64, def, n int) int {
	switch {
	case math.IsNaN(p):
		return def
	case p <= 0:
		return 0
	case p >= float64(n):
		return n
	}
	return int(p)
}

// toInteger is ES5 ToInteger saturated to ±2^53; NaN gives 0.
func toInteger(p float64) int {
	switch {
	case math.IsNaN(p):
		return 0
	case p > 1<<53:
		return 1 << 53
	case p < -(1 << 53):
		return -(1 << 53)
	}
	return int(p)
}

// clampIndex resolves a relative index (negative counts from the end)
// into [0, n].
func clampIndex(i, n int) int {
	if i < 0 {
		i += n
	}
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

// parseInt is the global parseInt (ES5 15.1.2.2); radix 0 means absent.
func parseInt(s string, radix int) float64 {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	} else if strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	strip := radix == 0 || radix == 16
	if radix == 0 {
		radix = 10
	} else if radix < 2 || radix > 36 {
		return math.NaN()
	}
	if strip && (strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X")) {
		s, radix = s[2:], 16
	}
	end := 0
	for end < len(s) && digitVal(s[end]) < radix {
		end++
	}
	if end == 0 {
		return math.NaN()
	}
	n, err := strconv.ParseInt(s[:end], radix, 64)
	if err != nil {
		return math.NaN()
	}
	if neg {
		n = -n
	}
	return float64(n)
}

func parseFloat(s string) float64 {
	s = strings.TrimSpace(s)
	end := len(s)
	for end > 0 {
		if _, err := strconv.ParseFloat(s[:end], 64); err == nil {
			break
		}
		end--
	}
	if end == 0 {
		return math.NaN()
	}
	n, _ := strconv.ParseFloat(s[:end], 64)
	return n
}

func digitVal(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'z':
		return int(b-'a') + 10
	case b >= 'A' && b <= 'Z':
		return int(b-'A') + 10
	}
	return 99
}
