package dom

import (
	"determinacy/internal/core"
	"determinacy/internal/interp"
)

// Binding connects a Document to a concrete interpreter.
type Binding struct {
	Doc *Document
	b   *binding[interp.Value]
}

// Install exposes the document to the interpreter as the standard globals:
// document, window (aliased to the global object), navigator, location,
// setTimeout and friends.
func Install(it *interp.Interp, doc *Document) *Binding {
	return &Binding{Doc: doc, b: install(it.Realm(), doc, true)}
}

// RunHandlers fires the registered handlers; see binding.runHandlers.
func (b *Binding) RunHandlers(limit int) (int, error) { return b.b.runHandlers(limit) }

// CoreBinding connects a Document to the instrumented interpreter, applying
// the paper's DOM determinacy policy (§4), or the Spec+DetDOM assumption
// (§5.1) when Deterministic is set.
type CoreBinding struct {
	Doc *Document
	// Deterministic treats all DOM reads and operation results as
	// determinate ("assuming that all properties of DOM objects are
	// determinate, and that operations on the DOM return determinate
	// values" — unsound in general, §5.1). It is fixed at installation.
	Deterministic bool

	b *binding[core.Value]
}

// InstallCore exposes the document to an instrumented interpreter.
func InstallCore(a *core.Analysis, doc *Document, deterministic bool) *CoreBinding {
	return &CoreBinding{Doc: doc, Deterministic: deterministic, b: install(a.Realm(), doc, deterministic)}
}

// RunHandlers fires the registered handlers under the instrumented
// semantics; see binding.runHandlers.
func (b *CoreBinding) RunHandlers(limit int) (int, error) { return b.b.runHandlers(limit) }
