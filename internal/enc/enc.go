// Package enc provides canonical string encoding helpers used by protocol
// state implementations to build their Key() values.
//
// Configuration equality in the model checker is defined by canonical keys,
// so two states must produce the same key if and only if they are
// semantically equal. The helpers here make that easy to get right for the
// common building blocks: integers, byte values, sets, and multisets. All
// encodings are prefix-free within a composite key because every field is
// terminated by a separator that cannot occur inside an encoded field.
package enc

import (
	"sort"
	"strconv"
	"strings"
)

// Sep separates fields in a composite key. Encoded fields never contain it.
const Sep = "|"

// listSep separates elements of an encoded list. It is distinct from Sep so
// that nested encodings remain unambiguous.
const listSep = ","

// A Builder accumulates fields of a canonical key.
type Builder struct {
	sb strings.Builder
}

// Int appends a decimal integer field.
func (b *Builder) Int(v int) *Builder {
	b.sb.WriteString(strconv.Itoa(v))
	b.sb.WriteString(Sep)
	return b
}

// Uint8 appends a small unsigned integer field (e.g. a consensus value).
func (b *Builder) Uint8(v uint8) *Builder {
	b.sb.WriteString(strconv.FormatUint(uint64(v), 10))
	b.sb.WriteString(Sep)
	return b
}

// Bool appends a boolean field encoded as 0 or 1.
func (b *Builder) Bool(v bool) *Builder {
	if v {
		b.sb.WriteString("1")
	} else {
		b.sb.WriteString("0")
	}
	b.sb.WriteString(Sep)
	return b
}

// Str appends a string field. The string must not contain Sep; callers that
// need arbitrary strings should escape them first with Escape.
func (b *Builder) Str(s string) *Builder {
	b.sb.WriteString(s)
	b.sb.WriteString(Sep)
	return b
}

// IntSlice appends a slice of integers in the given order.
func (b *Builder) IntSlice(vs []int) *Builder {
	for i, v := range vs {
		if i > 0 {
			b.sb.WriteString(listSep)
		}
		b.sb.WriteString(strconv.Itoa(v))
	}
	b.sb.WriteString(Sep)
	return b
}

// IntSet appends a set of integers in sorted order, so that two sets with
// the same members encode identically regardless of insertion order.
func (b *Builder) IntSet(set map[int]bool) *Builder {
	vs := make([]int, 0, len(set))
	for v, ok := range set {
		if ok {
			vs = append(vs, v)
		}
	}
	sort.Ints(vs)
	return b.IntSlice(vs)
}

// StrSet appends a set of strings in sorted order.
func (b *Builder) StrSet(set map[string]bool) *Builder {
	vs := make([]string, 0, len(set))
	for v, ok := range set {
		if ok {
			vs = append(vs, v)
		}
	}
	sort.Strings(vs)
	for i, v := range vs {
		if i > 0 {
			b.sb.WriteString(listSep)
		}
		b.sb.WriteString(v)
	}
	b.sb.WriteString(Sep)
	return b
}

// AppendInt appends a decimal integer field to dst: what Builder.Int and
// Builder.Uint8 write, for key builders that assemble a key in a byte
// buffer they size themselves.
func AppendInt(dst []byte, v int) []byte {
	return append(strconv.AppendInt(dst, int64(v), 10), Sep...)
}

// AppendBool appends a boolean field to dst, as Builder.Bool writes it.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, '1', Sep[0])
	}
	return append(dst, '0', Sep[0])
}

// String returns the accumulated key.
func (b *Builder) String() string { return b.sb.String() }

// AppendEscaped appends Escape(s) to dst without building the string.
func AppendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case Sep[0]:
			dst = append(dst, '\\', 'p')
		case listSep[0]:
			dst = append(dst, '\\', 'c')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// Escape makes an arbitrary string safe for use as a key field by escaping
// the separator characters. It is injective: distinct inputs produce
// distinct outputs. A string with nothing to escape is returned as is.
func Escape(s string) string {
	if !strings.ContainsAny(s, "\\"+Sep+listSep) {
		return s
	}
	return string(AppendEscaped(make([]byte, 0, len(s)+8), s))
}
