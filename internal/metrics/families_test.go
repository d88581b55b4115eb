package metrics

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// familyTable renders every exposition family a Snapshot feeds, in page
// order, from the same layout the page writer walks.
func familyTable() string {
	var b strings.Builder
	b.WriteString("| Family | Type | Snapshot field | Help |\n|---|---|---|---|\n")
	var rows func(fields []series, path, labels string)
	rows = func(fields []series, path, labels string) {
		for _, s := range fields {
			if s.elem != nil {
				rows(s.elem, path+s.field+"[i].", joinLabels(labels, s.each+`="<i>"`))
				continue
			}
			name := s.name
			if ls := joinLabels(labels, s.label); ls != "" {
				name += "{" + ls + "}"
			}
			fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s |\n", name, s.typ, path+s.field, s.help)
		}
	}
	rows(layout(reflect.TypeOf(Snapshot{})), "", "")
	return b.String()
}

// TestFamilyTableDocumented requires docs/OBSERVABILITY.md to carry the
// family table verbatim, so the documented families, types and help
// texts cannot drift from the tags that declare them.
func TestFamilyTableDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	table := familyTable()
	if !strings.Contains(string(doc), table) {
		t.Fatalf("docs/OBSERVABILITY.md does not contain the family table; replace its table with:\n\n%s", table)
	}
}
