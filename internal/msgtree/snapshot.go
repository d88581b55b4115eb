package msgtree

import (
	"fmt"
	"sort"
	"strings"

	"protoobf/internal/graph"
)

// Snapshot captures the logical content of a message: every original
// user field value, optional presence flags and repetition item counts,
// keyed by original field names with item indices. Two messages carry
// the same information iff their snapshots are equal, regardless of the
// transformations applied to the underlying graph — this is the oracle
// the round-trip property tests rely on.
func (m *Message) Snapshot() (map[string]string, error) {
	out := make(map[string]string)
	if err := m.snapWalk(m.Tree(), "", out); err != nil {
		return nil, err
	}
	return out, nil
}

func (m *Message) snapWalk(v *Value, prefix string, out map[string]string) error {
	n := v.Node
	if n.Origin.Role == graph.RolePad {
		return nil
	}
	// Value-bearing node for an original field.
	if (n.Kind == graph.Terminal || n.Comb != nil) && n.Origin.Role == graph.RoleWhole {
		if n.AutoFill {
			return nil // serializer-computed, not part of the logical content
		}
		val, err := m.GetNodeValue(v)
		if err != nil {
			return fmt.Errorf("snapshot %s%s: %w", prefix, n.Origin.Name, err)
		}
		out[prefix+n.Origin.Name] = val.String()
		return nil
	}
	if n.Kind == graph.Terminal {
		// Synthetic terminal (length fields, detached split parts):
		// not part of the logical content.
		return nil
	}
	switch {
	case n.Kind == graph.Optional:
		key := prefix + n.Origin.Name + ".present"
		out[key] = fmt.Sprintf("%v", v.Present)
		if v.Present {
			for _, k := range v.Kids {
				if err := m.snapWalk(k, prefix, out); err != nil {
					return err
				}
			}
		}
		return nil
	case (n.Kind == graph.Repetition || n.Kind == graph.Tabular) && !m.underSplitPair(n),
		m.isSplitPair(n):
		items, err := m.itemScopes(v)
		if err != nil {
			return err
		}
		out[prefix+n.Origin.Name+".count"] = fmt.Sprintf("%d", len(items))
		for i, item := range items {
			p := fmt.Sprintf("%s%s[%d].", prefix, n.Origin.Name, i)
			for _, r := range item.roots {
				if err := m.snapWalk(r, p, out); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		// Plain sequences and RoleGroup wrappers are transparent.
		for _, k := range v.Kids {
			if err := m.snapWalk(k, prefix, out); err != nil {
				return err
			}
		}
		return nil
	}
}

// underSplitPair reports whether n is one half of a TabSplit/RepSplit
// pair (handled by the pair Sequence, not individually).
func (m *Message) underSplitPair(n *graph.Node) bool {
	return n.Parent != nil && m.isSplitPair(n.Parent)
}

// FormatSnapshot renders a snapshot deterministically for debugging.
func FormatSnapshot(s map[string]string) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s = %s\n", k, s[k])
	}
	return b.String()
}

// SnapshotsEqual compares two snapshots and returns a description of the
// first difference, or "" when equal.
func SnapshotsEqual(a, b map[string]string) string {
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			return fmt.Sprintf("key %q missing from second snapshot", k)
		}
		if va != vb {
			return fmt.Sprintf("key %q: %s != %s", k, va, vb)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			return fmt.Sprintf("key %q missing from first snapshot", k)
		}
	}
	return ""
}
