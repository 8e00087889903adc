// Package enc provides the field encoders protocol states and messages use
// to build their Key() values, append-style into a byte buffer the caller
// sizes.
//
// A key must be canonical: two states produce the same key if and only if
// they are semantically equal. Every encoded field is terminated by Sep,
// which no encoded field contains (integers and booleans are digits,
// AppendEscaped escapes it), so the fields of a composite key are
// prefix-free and a key is injective over its field sequence. List
// elements inside one field are separated by ',', which AppendEscaped
// escapes too.
package enc

import "strconv"

// Sep terminates every field of a composite key. Encoded fields never
// contain it.
const Sep = "|"

// listSep separates elements of a list inside one field. It is distinct
// from Sep so that nested encodings remain unambiguous.
const listSep = ","

// AppendInt appends a decimal integer field to dst.
func AppendInt(dst []byte, v int) []byte {
	return append(strconv.AppendInt(dst, int64(v), 10), Sep...)
}

// AppendBool appends a boolean field, encoded as 0 or 1, to dst.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, '1', Sep[0])
	}
	return append(dst, '0', Sep[0])
}

// AppendEscaped appends s to dst with each backslash, Sep and ',' written
// as `\\`, `\p` and `\c`. The escaping is injective and its output
// contains neither separator, so an escaped string followed by Sep is a
// field; AppendEscaped does not append the Sep itself.
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
