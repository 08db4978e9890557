package core_test

import (
	"strconv"
	"strings"
	"testing"

	"determinacy/internal/core"
	"determinacy/internal/dom"
	"determinacy/internal/facts"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
)

// nativeSuite exercises the standard library. Each snippet's console
// output is written by hand from the ES5 specification; both interpreters
// must print exactly that. New rows go at the end: subtest names carry the
// row index. Both run the same declared behaviours, so their
// agreement alone would prove nothing about the behaviours themselves.
var nativeSuite = []struct{ src, want string }{
	// Arrays.
	{`var a = [3, 1, 2]; console.log(a.shift(), a.join("+"), a.length);`, "3 1+2 2"},
	{`var a = [1]; a.push(2, 3); console.log(a.pop(), a.join(","));`, "3 1,2"},
	{`console.log([1, 2, 3].indexOf(2), [1].indexOf(9));`, "1 -1"},
	{`console.log([1, 2, 3, 4].slice(1, 3).join(","), [1, 2].slice(-1).join(","));`, "2,3 2"},
	{`console.log([1].concat([2, 3], 4).join(","));`, "1,2,3,4"},
	{`console.log([1, 2, 3].map(function(x) { return x * 2; }).join(","));`, "2,4,6"},
	{`console.log([1, 2, 3, 4].filter(function(x) { return x % 2 === 0; }).join(","));`, "2,4"},
	{`var s = 0; [1, 2, 3].forEach(function(x, i) { s += x * i; }); console.log(s);`, "8"},
	{`console.log(Array.isArray([1]), Array.isArray("no"), new Array(4).length);`, "true false 4"},
	{`var a = [9, 8]; a.length = 1; console.log(a.join(","), a[1]);`, "9 undefined"},
	// Strings.
	{`var s = "Hello World"; console.log(s.toUpperCase(), s.toLowerCase());`, "HELLO WORLD hello world"},
	{`console.log("abc".charAt(1), "abc".charCodeAt(2), "abc".charAt(9));`, "b 99 "},
	{`console.log("hay-needle-hay".indexOf("needle"), "aXa".lastIndexOf("a"));`, "4 2"},
	{`console.log("substring".substring(3, 6), "substring".substring(6, 3));`, "str str"},
	{`console.log("substr".substr(1, 3), "substr".substr(-3));`, "ubs str"},
	{`console.log("slice me".slice(2, 5), "slice".slice(-3));`, "ice ice"},
	{`console.log("a,b,c".split(",").join("|"), "abc".split("").length);`, "a|b|c 3"},
	{`console.log("  trim  ".trim() + "!");`, "trim!"},
	{`console.log("repXlace".replace("X", "_"), "no match".replace("z", "_"));`, "rep_lace no match"},
	{`console.log("con".concat("cat", 42), String.fromCharCode(104, 105));`, "concat42 hi"},
	{`console.log("str"[0], "str".length, "str"["length"]);`, "s 3 3"},
	// Math.
	{`console.log(Math.abs(-4), Math.floor(1.9), Math.ceil(1.1), Math.round(0.5));`, "4 1 2 1"},
	{`console.log(Math.pow(3, 4), Math.sqrt(144), Math.min(5, 2, 8), Math.max(5, 2, 8));`, "81 12 2 8"},
	{`console.log(Math.floor(Math.PI), Math.floor(Math.E));`, "3 2"},
	// Numbers.
	{`console.log((254).toString(16), (6.456).toFixed(1), (10).toString());`, "fe 6.5 10"},
	{`console.log(Number("3.5") + 1, Number(""), Number(true));`, "4.5 0 1"},
	{`console.log(parseInt(" 42abc"), parseInt("z"), parseFloat("2.5x"));`, "42 NaN 2.5"},
	{`console.log(isNaN("abc"), isNaN("42"), isFinite(1), isFinite(Infinity));`, "true false true false"},
	// Objects.
	{`var o = {x: 1, y: 2}; console.log(Object.keys(o).join(","), o.hasOwnProperty("x"), o.hasOwnProperty("z"));`, "x,y true false"},
	{`var p = Object.create({base: 9}); console.log(p.base, p.hasOwnProperty("base"));`, "9 false"},
	{`console.log(Object.getPrototypeOf([]) === Array.prototype);`, "true"},
	{`console.log(({a: 1}).toString(), [1, 2].toString());`, "[object Object] 1,2"},
	// Function.prototype.
	{`function who() { return this.name; } console.log(who.call({name: "n1"}), who.apply({name: "n2"}));`, "n1 n2"},
	{`function add3(a, b, c) { return a + b + c; } console.log(add3.apply(null, [1, 2, 3]));`, "6"},
	// Booleans, equality, bit ops.
	{`console.log(Boolean(0), Boolean("x"), Boolean(null));`, "false true false"},
	{`console.log(5 & 3, 5 | 3, 5 ^ 3, ~5, 1 << 4, -16 >> 2, -16 >>> 28);`, "1 7 6 -6 16 -4 15"},
	{`console.log(1 == "1", 1 === "1", null == undefined, null === undefined);`, "true false true false"},
	{`console.log("a" < "b", 2 <= "2", "10" < 9);`, "true true false"},
	// Errors.
	{`try { null.f; } catch (e) { console.log(e.name, e instanceof TypeError); }`, "TypeError true"},
	{`var e = new RangeError("r"); console.log(e.message, "" + e);`, "r RangeError: r"},
	// eval.
	{`console.log(eval("[1,2,3].length"), eval("'s' + 'tr'"));`, "3 str"},
	// typeof / delete / in / instanceof.
	{`console.log(typeof [], typeof {}, typeof "", typeof 0, typeof undefined, typeof null, typeof eval);`,
		"object object string number undefined object function"},
	{`var o = {k: 1}; console.log(delete o.k, "k" in o, delete o.missing);`, "true false true"},
	{`function C() {} var c = new C(); console.log(c instanceof C, ({}) instanceof C);`, "true false"},
	// Conversions with objects.
	{`console.log("" + [1, 2], "" + {}, 1 + [2], [3] * 2);`, "1,2 [object Object] 12 6"},
	{`console.log([1] == 1, [1, 2] == "1,2");`, "true true"},
	// Date (fixed instant).
	{`console.log(Date.now() === Date.now(), new Date().__time);`, "true 1000"},
	// ES5 conformance cases that earlier implementations got wrong.
	{`var h = new Array(2); console.log(h.indexOf(undefined), h.join("-"));`, "-1 -"},
	{`console.log("abcabc".indexOf("c", 3), "abc".indexOf("", 10));`, "5 3"},
	{`console.log("abcabc".lastIndexOf("c", 3), "abc".lastIndexOf("", 10));`, "2 3"},
	{`console.log("a-b-c".split("-", 2).length, "a-b".split("-", 0).length);`, "2 0"},
	{`console.log(String(-0), "" + -0, (-0).toString());`, "0 0 0"},
	{`console.log(1 / Math.round(-0.5), Math.round(0.49999999999999994), Math.round(-2.5));`, "-Infinity 0 -2"},
	{`console.log((1e21).toFixed(2), (1.5).toFixed(0));`, "1e+21 2"},
	{`console.log(parseInt("0x1f"), parseInt("0x1f", 16), parseInt("0x1f", 10), parseInt("11", 2));`, "31 31 0 3"},
	{`console.log(new Error(undefined).message === "", String(new TypeError()));`, "true TypeError"},
	{`console.log(({}) == "[object Object]", ({}) == 1, [1] == true, ({}) == null);`, "true false true false"},
	{`console.log("abc".substring(-1), "abc".charAt(), "abcdef".substr(NaN, 2), [1, 2, 3].slice(0, Infinity).length);`, "abc a ab 3"},
}

func TestNativeModelsMatchConcrete(t *testing.T) {
	for i, tc := range nativeSuite {
		tc := tc
		t.Run(strings.Fields(tc.src)[0]+sprintIdx(i), func(t *testing.T) {
			want := tc.want + "\n"
			cm, err := ir.Compile("n.js", tc.src)
			if err != nil {
				t.Fatalf("compile: %v\n%s", err, tc.src)
			}
			var cb strings.Builder
			it := interp.New(cm, interp.Options{Out: &cb, Seed: 4, Now: 1000})
			if _, err := it.Run(); err != nil {
				t.Fatalf("concrete: %v\n%s", err, tc.src)
			}
			if cb.String() != want {
				t.Errorf("concrete output for %q:\n got %q\nwant %q", tc.src, cb.String(), want)
			}

			im, err := ir.Compile("n.js", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var ib strings.Builder
			a := core.New(im, facts.NewStore(), core.Options{Out: &ib, Seed: 4, Now: 1000})
			if _, err := a.Run(); err != nil {
				t.Fatalf("instrumented: %v\n%s", err, tc.src)
			}
			if ib.String() != cb.String() {
				t.Errorf("native model diverges for %q:\nconcrete:     %q\ninstrumented: %q",
					tc.src, cb.String(), ib.String())
			}
		})
	}
}

func sprintIdx(i int) string {
	return "_" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestNativeDeterminacyModels checks the annotation side: one case per
// policy. Determinate natives are as determinate as what they read; an
// indeterminate source never is; DOM results are determinate only under
// DetDOM; enumerating an open record is indeterminate.
func TestNativeDeterminacyModels(t *testing.T) {
	mod, store, _ := analyze(t, `(function(){
		var det = "abc".toUpperCase();
		var s = "" + Math.random();
		var tainted = s.charAt(0);
		var viaArr = [1, 2, Math.random()].join(",");
		var cleanArr = [1, 2, 3].join(",");
		var now = Date.now();
		var o = {a: 1}; var k = s.length > 0 ? "b" : "c"; o[k] = 2;
		var openKeys = Object.keys(o);
		var closedKeys = Object.keys({a: 1, b: 2});
		var fromArr = Math.abs([Math.random()]);
		var fresh = new Error(s);
	})();`, core.Options{})
	wantCall(t, mod, store, 2, true)   // "abc".toUpperCase() determinate
	wantCall(t, mod, store, 4, false)  // charAt on indeterminate string: value tainted
	wantCall(t, mod, store, 5, false)  // join over an indeterminate element
	wantCall(t, mod, store, 6, true)   // join over determinate elements
	wantCall(t, mod, store, 7, false)  // Date.now is an indeterminate source
	wantCall(t, mod, store, 9, false)  // keys of a record opened by an indeterminate name
	wantCall(t, mod, store, 10, true)  // keys of a closed record
	wantCall(t, mod, store, 11, false) // ToNumber reads the array's contents
	wantCall(t, mod, store, 12, true)  // a fresh error is a determinate reference

	// Keys keep their positions up to the first key another execution
	// may lack: "b" is written under an indeterminate condition, so it
	// and the later "c" are indeterminate, and so is the array, but "a"
	// is not.
	_, _, a := analyze(t, `var o = {a: 1};
if (Math.random() < 2) { o.b = 2; }
o.c = 3;
ks = Object.keys(o);`, core.Options{})
	ks, ok := a.Global.OwnProp("ks")
	if !ok || ks.Kind != core.Object {
		t.Fatalf("ks = %v, want the keys array", ks)
	}
	if ks.Det {
		t.Error("Object.keys over a maybe-absent key: array reference determinate")
	}
	for i, want := range []bool{true, false, false} {
		if el, _ := ks.O.OwnProp(strconv.Itoa(i)); el.Det != want {
			t.Errorf("Object.keys(o)[%d] = %v, determinate %v; want %v", i, el.S, el.Det, want)
		}
	}
}

// TestDOMDeterminacyPolicy checks the DOM policies: results are
// indeterminate unless DetDOM holds; external calls and accessor setters
// abort counterfactual execution, DOM reads and getters do not.
func TestDOMDeterminacyPolicy(t *testing.T) {
	src := `var el = document.getElementById("main");
var made = document.createElement("div");
if (Math.random() > 2) { document.getElementById("main"); }
if (Math.random() > 2) { document.createElement("p"); }
if (Math.random() > 2) { made.id; }
if (Math.random() > 2) { made.id = "x"; }`
	for _, det := range []bool{false, true} {
		mod, err := ir.Compile("dom.js", src)
		if err != nil {
			t.Fatal(err)
		}
		store := facts.NewStore()
		a := core.New(mod, store, core.Options{})
		dom.InstallCore(a, dom.NewDocument(dom.Options{}), det)
		if _, err := a.Run(); err != nil {
			t.Fatal(err)
		}
		wantCall(t, mod, store, 1, det) // DOM read
		wantCall(t, mod, store, 2, det) // external effect
		if got := a.Stats(); got.Counterfacts != 4 || got.CFAborts != 2 {
			t.Errorf("DetDOM=%v: %d counterfactuals, %d aborts; want 4 and 2 (only the external call and the setter abort)",
				det, got.Counterfacts, got.CFAborts)
		}
	}
}

// wantCall expects every call and construction fact on line to have
// determinacy det.
func wantCall(t *testing.T, mod *ir.Module, store *facts.Store, line int, det bool) {
	t.Helper()
	fs := factsAtLine(t, mod, store, line, func(in ir.Instr) bool {
		switch in.(type) {
		case *ir.Call, *ir.New:
			return true
		}
		return false
	})
	if len(fs) == 0 {
		t.Errorf("line %d: no call facts", line)
	}
	for _, f := range fs {
		if f.Det != det {
			t.Errorf("line %d: det=%v, want %v (%s)", line, f.Det, det, facts.RenderFact(mod, f))
		}
	}
}
