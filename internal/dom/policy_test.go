package dom

import (
	"os"
	"strings"
	"testing"

	"determinacy/internal/interp"
)

// TestPolicyTableMatchesReadme pins the README's table of natives and
// determinacy policies to the declarations: the docs embed the rendered
// table verbatim, so a new native or a changed policy fails until the
// README is updated to match.
func TestPolicyTableMatchesReadme(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	page := &binding[interp.Value]{doc: NewDocument(Options{})}
	want := interp.PolicyTable(append(interp.Library[interp.Value](), page.decls()...))
	if !strings.Contains(string(readme), want) {
		t.Fatalf("README.md does not embed the canonical policy table verbatim.\n"+
			"Paste this into the \"Natives and determinacy policies\" section:\n\n%s", want)
	}
}
