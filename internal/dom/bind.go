package dom

import (
	"fmt"

	"determinacy/internal/interp"
)

// binding declares the document's JavaScript surface once, over either
// interpreter's values. Every DOM-derived value goes through mark, which
// applies the §4 policy: host values are indeterminate unless the binding
// is deterministic (Spec+DetDOM, §5.1).
type binding[V any] struct {
	doc       *Document
	det       bool
	r         interp.Realm[V]
	wrap      map[*Node]V
	elemProto V
	nextTimer int
	cancelled map[int]bool
}

func install[V any](r interp.Realm[V], doc *Document, det bool) *binding[V] {
	b := &binding[V]{doc: doc, det: det, r: r, wrap: map[*Node]V{}, cancelled: map[int]bool{}}
	b.elemProto = r.NewPlain()
	interp.Install(r, b.decls(), map[string]V{"Element.prototype": b.elemProto})
	return b
}

func (b *binding[V]) mark(h interp.Host[V], v V) V { return h.Mark(v, b.det) }

func (b *binding[V]) str(h interp.Host[V], s string) V { return b.mark(h, h.Str(s)) }

func (b *binding[V]) null(h interp.Host[V]) V { return b.mark(h, h.Null()) }

func nodeOf[V any](h interp.Host[V], v V) *Node {
	n, _ := h.Data(v).(*Node)
	return n
}

// node returns the wrapper object for n, creating it on first use.
func (b *binding[V]) node(h interp.Host[V], n *Node) V {
	if n == nil {
		return b.null(h)
	}
	o, ok := b.wrap[n]
	if !ok {
		o = h.NewObject(b.elemProto)
		h.SetData(o, n)
		h.Set(o, "tagName", b.str(h, upper(n.Tag)))
		h.Set(o, "nodeName", b.str(h, upper(n.Tag)))
		h.Set(o, "nodeType", b.mark(h, h.Num(1)))
		h.Set(o, "style", b.mark(h, h.NewPlain()))
		b.wrap[n] = o
	}
	return b.mark(h, o)
}

func (b *binding[V]) nodeArray(h interp.Host[V], nodes []*Node) V {
	elems := make([]V, len(nodes))
	for i, n := range nodes {
		elems[i] = b.node(h, n)
	}
	return b.mark(h, h.NewArray(elems))
}

func upper(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		out[i] = c
	}
	return string(out)
}

// decls declares the document surface in installation order.
func (b *binding[V]) decls() []interp.Decl[V] {
	doc := b.doc
	arg := interp.Arg[V]
	// listen registers an event handler; element listeners record their
	// target.
	listen := func(element bool) interp.Behaviour[V] {
		return func(h interp.Host[V], this V, args []V) (V, error) {
			hd := Handler{Kind: "event", Event: h.ToString(arg(h, args, 0)), Fn: arg(h, args, 1)}
			if element {
				hd.Target = nodeOf(h, this)
			}
			doc.Handlers = append(doc.Handlers, hd)
			return h.Undefined(), nil
		}
	}
	timer := func(kind string) interp.Behaviour[V] {
		return func(h interp.Host[V], this V, args []V) (V, error) {
			b.nextTimer++
			doc.Handlers = append(doc.Handlers, Handler{Kind: kind, Fn: arg(h, args, 0), TimerID: b.nextTimer})
			return b.mark(h, h.Num(float64(b.nextTimer))), nil
		}
	}
	clear := func(h interp.Host[V], this V, args []V) (V, error) {
		b.cancelled[int(h.ToNumber(arg(h, args, 0)))] = true
		return h.Undefined(), nil
	}
	// reparent applies a tree edit to (this, child) and returns child.
	reparent := func(edit func(parent, child *Node)) interp.Behaviour[V] {
		return func(h interp.Host[V], this V, args []V) (V, error) {
			child := arg(h, args, 0)
			if p, c := nodeOf(h, this), nodeOf(h, child); p != nil && c != nil {
				edit(p, c)
			}
			return b.mark(h, child), nil
		}
	}
	// getter and setter declare the two halves of a string accessor over
	// a node field: reading it reads the DOM, writing it changes the DOM.
	getter := func(path string, get func(n *Node) string) interp.Decl[V] {
		return interp.Decl[V]{Path: path, Kind: interp.DeclGetter, Policy: interp.DOMRead,
			Fn: func(h interp.Host[V], this V, args []V) (V, error) {
				if n := nodeOf(h, this); n != nil {
					return b.str(h, get(n)), nil
				}
				return b.str(h, ""), nil
			}}
	}
	setter := func(path string, set func(n *Node, s string)) interp.Decl[V] {
		return interp.Decl[V]{Path: path, Kind: interp.DeclSetter, Policy: interp.External,
			Fn: func(h interp.Host[V], this V, args []V) (V, error) {
				if n := nodeOf(h, this); n != nil {
					set(n, h.ToString(arg(h, args, 0)))
				}
				return h.Undefined(), nil
			}}
	}
	value := func(path string, init func(h interp.Host[V]) V) interp.Decl[V] {
		return interp.Decl[V]{Path: path, Kind: interp.DeclValue, Init: init}
	}
	text := func(path, s string) interp.Decl[V] {
		return value(path, func(h interp.Host[V]) V { return b.str(h, s) })
	}

	return []interp.Decl[V]{
		{Path: "Element.prototype.getElementsByTagName", Policy: interp.DOMRead, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			n := nodeOf(h, this)
			if n == nil {
				return b.nodeArray(h, nil), nil
			}
			tag := h.ToString(arg(h, args, 0))
			var out []*Node
			var walk func(m *Node)
			walk = func(m *Node) {
				for _, c := range m.Children {
					if tag == "*" || c.Tag == tag {
						out = append(out, c)
					}
					walk(c)
				}
			}
			walk(n)
			return b.nodeArray(h, out), nil
		}},
		{Path: "Element.prototype.appendChild", Policy: interp.External, Fn: reparent(doc.Append)},
		{Path: "Element.prototype.removeChild", Policy: interp.External, Fn: reparent(func(p, c *Node) { doc.Remove(p, c) })},
		{Path: "Element.prototype.setAttribute", Policy: interp.External, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			if n := nodeOf(h, this); n != nil {
				name, val := h.ToString(arg(h, args, 0)), h.ToString(arg(h, args, 1))
				if name == "id" {
					doc.SetID(n, val)
				} else {
					n.Attrs[name] = val
				}
			}
			return h.Undefined(), nil
		}},
		{Path: "Element.prototype.getAttribute", Policy: interp.DOMRead, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			n := nodeOf(h, this)
			if n == nil {
				return b.null(h), nil
			}
			name := h.ToString(arg(h, args, 0))
			if name == "id" {
				return b.str(h, n.ID), nil
			}
			if v, ok := n.Attrs[name]; ok {
				return b.str(h, v), nil
			}
			return b.null(h), nil
		}},
		{Path: "Element.prototype.addEventListener", Policy: interp.External, Fn: listen(true)},
		{Path: "Element.prototype.attachEvent", Policy: interp.External, Fn: listen(true)},
		{Path: "Element.prototype.removeEventListener", Policy: interp.DOMRead, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			return h.Undefined(), nil
		}},
		// Live accessor properties.
		getter("Element.prototype.innerHTML", (*Node).InnerHTML),
		setter("Element.prototype.innerHTML", doc.SetInnerHTML),
		getter("Element.prototype.id", func(n *Node) string { return n.ID }),
		setter("Element.prototype.id", doc.SetID),
		{Path: "Element.prototype.firstChild", Kind: interp.DeclGetter, Policy: interp.DOMRead, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			n := nodeOf(h, this)
			if n == nil || len(n.Children) == 0 {
				return b.null(h), nil
			}
			return b.node(h, n.Children[0]), nil
		}},
		{Path: "Element.prototype.parentNode", Kind: interp.DeclGetter, Policy: interp.DOMRead, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			if n := nodeOf(h, this); n != nil {
				return b.node(h, n.Parent), nil
			}
			return b.null(h), nil
		}},
		{Path: "Element.prototype.childNodes", Kind: interp.DeclGetter, Policy: interp.DOMRead, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			var children []*Node
			if n := nodeOf(h, this); n != nil {
				children = n.Children
			}
			return b.nodeArray(h, children), nil
		}},
		getter("Element.prototype.value", func(n *Node) string { return n.Attrs["value"] }),
		setter("Element.prototype.value", func(n *Node, s string) { n.Attrs["value"] = s }),

		{Path: "window", Kind: interp.DeclGlobal}, // window is the global object
		{Path: "document", Kind: interp.DeclValue, Init: func(h interp.Host[V]) V {
			o := h.NewPlain()
			h.SetData(o, doc)
			return o
		}},
		{Path: "document.getElementById", Policy: interp.DOMRead, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			return b.node(h, doc.ByID(h.ToString(arg(h, args, 0)))), nil
		}},
		{Path: "document.getElementsByTagName", Policy: interp.DOMRead, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			return b.nodeArray(h, doc.ByTag(h.ToString(arg(h, args, 0)))), nil
		}},
		{Path: "document.createElement", Policy: interp.External, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			return b.node(h, doc.NewNode(h.ToString(arg(h, args, 0)), "")), nil
		}},
		{Path: "document.createTextNode", Policy: interp.External, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			s := h.ToString(arg(h, args, 0))
			n := doc.NewNode("#text", "")
			n.Text = s
			return b.node(h, n), nil
		}},
		{Path: "document.write", Policy: interp.External, Fn: func(h interp.Host[V], this V, args []V) (V, error) {
			doc.SetInnerHTML(doc.Body, doc.Body.InnerHTML()+h.ToString(arg(h, args, 0)))
			return h.Undefined(), nil
		}},
		{Path: "document.addEventListener", Policy: interp.External, Fn: listen(false)},
		{Path: "document.attachEvent", Policy: interp.External, Fn: listen(false)},
		text("document.title", doc.Title),
		text("document.cookie", ""),
		text("document.readyState", "loading"),
		value("document.body", func(h interp.Host[V]) V { return b.node(h, doc.Body) }),
		value("document.documentElement", func(h interp.Host[V]) V { return b.node(h, doc.Root) }),

		{Path: "navigator", Kind: interp.DeclObject},
		text("navigator.userAgent", doc.UserAgent),
		text("navigator.appName", "Netscape"),
		{Path: "location", Kind: interp.DeclObject},
		text("location.href", doc.URL),
		text("location.protocol", "http:"),

		{Path: "setTimeout", Policy: interp.External, Fn: timer("timeout")},
		{Path: "setInterval", Policy: interp.External, Fn: timer("interval")},
		{Path: "clearTimeout", Policy: interp.External, Fn: clear},
		{Path: "clearInterval", Policy: interp.External, Fn: clear},
		{Path: "addEventListener", Policy: interp.External, Fn: listen(false)},
		{Path: "attachEvent", Policy: interp.External, Fn: listen(false)},
	}
}

// runHandlers fires registered handlers (ready/load events, timers, element
// events) in registration order, including handlers registered while
// handling, up to limit invocations. It models ZombieJS driving the page
// after the main script. The heap is flushed on entry to each handler (§4:
// "since DOM events can fire in any order, we perform a heap flush
// immediately upon entering an event handler"), whose receiver is
// indeterminate.
func (b *binding[V]) runHandlers(limit int) (int, error) {
	h := b.r
	fired := 0
	for i := 0; i < len(b.doc.Handlers) && fired < limit; i++ {
		hd := b.doc.Handlers[i]
		if (hd.Kind == "timeout" || hd.Kind == "interval") && b.cancelled[hd.TimerID] {
			continue
		}
		fn, ok := hd.Fn.(V)
		if !ok || h.Class(fn) != "Function" {
			continue
		}
		h.Flush("event-handler")
		ev := h.NewPlain()
		h.Set(ev, "type", b.str(h, hd.Event))
		if hd.Target != nil {
			h.Set(ev, "target", b.node(h, hd.Target))
		}
		fired++
		if _, err := h.Call(fn, h.Mark(h.Undefined(), false), []V{b.mark(h, ev)}); err != nil {
			return fired, fmt.Errorf("dom: handler %d (%s %s): %w", i, hd.Kind, hd.Event, err)
		}
	}
	return fired, nil
}
