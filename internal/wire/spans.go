package wire

import (
	"fmt"

	"protoobf/internal/msgtree"
)

// Span locates one field in the serialized byte stream. It is the ground
// truth the protocol-reverse-engineering baseline (internal/pre) is
// scored against.
type Span struct {
	// Name is the node name (original field name for plain graphs).
	Name string
	// Start and End delimit the field content, End exclusive. Delimiters
	// are not part of the span.
	Start, End int
}

func (s Span) String() string { return fmt.Sprintf("%s[%d:%d]", s.Name, s.Start, s.End) }

// SerializeWithSpans serializes the message and records the byte span of
// every terminal field. Subtrees serialized in reverse order
// (ReadFromEnd) have their field offsets mapped through the reversal, so
// the spans are exact even under nested ReadFromEnd transformations.
func SerializeWithSpans(m *msgtree.Message) ([]byte, []Span, error) {
	root := m.Tree()
	if err := fill(m, root); err != nil {
		return nil, nil, err
	}
	var spans []Span
	out, err := emit(root, nil, &spans)
	if err != nil {
		return nil, nil, err
	}
	return out, spans, nil
}
