package spec

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// This file is a minimal YAML-subset parser — just enough for workload
// specs, with strict errors instead of silent YAML cleverness. Supported:
// block mappings and sequences by indentation (spaces only), sequence items
// introduced by "- " (including inline "- key: value" map items), plain and
// quoted scalars, one-line flow sequences ("[1, 2, 3]"), comments, and an
// optional leading "---". Deliberately unsupported, with actionable errors:
// tabs, anchors/aliases, block scalars (| and >), flow mappings ("{...}"),
// and multi-document streams. The output tree uses map[string]any, []any,
// string, bool, int64, uint64, float64, and nil — the same shapes the JSON
// path produces, so one decoder serves both.

// yline is one logical (non-blank, non-comment) line.
type yline struct {
	indent int
	text   string
	no     int // 1-based source line number
}

// parseYAML parses the subset into a generic tree.
func parseYAML(data []byte) (any, error) {
	lines, err := scanYAML(string(data))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, nil
	}
	v, next, err := parseYAMLBlock(lines, 0, lines[0].indent)
	if err != nil {
		return nil, err
	}
	if next != len(lines) {
		return nil, fmt.Errorf("line %d: %q is not part of the preceding block (check indentation)", lines[next].no, lines[next].text)
	}
	return v, nil
}

// scanYAML splits the input into logical lines, stripping comments and
// rejecting constructs outside the subset.
func scanYAML(src string) ([]yline, error) {
	var out []yline
	for no, raw := range strings.Split(src, "\n") {
		no++ // 1-based
		line := strings.TrimRight(raw, " \r")
		if line == "" {
			continue
		}
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return nil, fmt.Errorf("line %d: tab in indentation (use spaces)", no)
		}
		text := stripYAMLComment(line[indent:])
		if text == "" {
			continue
		}
		if text == "---" {
			if len(out) == 0 && indent == 0 {
				continue // leading document marker
			}
			return nil, fmt.Errorf("line %d: multi-document YAML streams are not supported", no)
		}
		if strings.HasPrefix(text, "%") {
			return nil, fmt.Errorf("line %d: YAML directives are not supported", no)
		}
		out = append(out, yline{indent: indent, text: text, no: no})
	}
	return out, nil
}

// stripYAMLComment removes a trailing " # ..." comment (or a full-line
// comment), respecting quoted strings.
func stripYAMLComment(s string) string {
	if strings.HasPrefix(s, "#") {
		return ""
	}
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote == '"' && c == '\\':
			i++ // skip escaped char
		case quote != 0 && c == quote:
			quote = 0
		case quote == 0 && (c == '"' || c == '\''):
			quote = c
		case quote == 0 && c == '#' && i > 0 && (s[i-1] == ' ' || s[i-1] == '\t'):
			return strings.TrimRight(s[:i], " \t")
		}
	}
	return s
}

// parseYAMLBlock parses one block (mapping, sequence, or scalar) whose lines
// start at index i with the given indentation, returning the value and the
// index of the first line past the block.
func parseYAMLBlock(lines []yline, i, indent int) (any, int, error) {
	line := lines[i]
	switch {
	case isSeqItem(line.text):
		return parseYAMLSeq(lines, i, indent)
	case isMapEntry(line.text):
		return parseYAMLMap(lines, i, indent)
	default:
		v, err := parseScalar(line.text, line.no)
		if err != nil {
			return nil, 0, err
		}
		if i+1 < len(lines) && lines[i+1].indent >= indent {
			return nil, 0, fmt.Errorf("line %d: unexpected content after scalar %q (multi-line scalars are not supported)", lines[i+1].no, line.text)
		}
		return v, i + 1, nil
	}
}

func isSeqItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

func isMapEntry(text string) bool {
	_, _, ok := splitKey(text)
	return ok
}

// splitKey splits "key: value" (or "key:") at the first unquoted colon that
// ends the key, returning the key, the raw value text (may be empty), and
// whether the line is a mapping entry at all.
func splitKey(text string) (key, value string, ok bool) {
	var quote byte
	depth := 0
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case quote == '"' && c == '\\':
			i++
		case quote != 0 && c == quote:
			quote = 0
		case quote == 0 && (c == '"' || c == '\''):
			quote = c
		case quote == 0 && (c == '[' || c == '{'):
			depth++
		case quote == 0 && (c == ']' || c == '}'):
			depth--
		case quote == 0 && depth == 0 && c == ':':
			if i+1 == len(text) || text[i+1] == ' ' {
				key = strings.TrimSpace(text[:i])
				if key == "" {
					return "", "", false
				}
				return key, strings.TrimSpace(text[i+1:]), true
			}
		}
	}
	return "", "", false
}

// parseYAMLSeq parses consecutive "- ..." items at the given indentation.
func parseYAMLSeq(lines []yline, i, indent int) (any, int, error) {
	out := []any{}
	for i < len(lines) && lines[i].indent == indent && isSeqItem(lines[i].text) {
		line := lines[i]
		rest := strings.TrimSpace(strings.TrimPrefix(line.text, "-"))
		// Gather the item's continuation lines (anything indented deeper
		// than the dash) and parse them as a standalone block with the
		// inline remainder, if any, re-injected at the item indentation.
		j := i + 1
		for j < len(lines) && lines[j].indent > indent {
			j++
		}
		sub := lines[i+1 : j]
		switch {
		case rest == "" && len(sub) == 0:
			out = append(out, nil)
		case rest == "":
			v, n, err := parseYAMLBlock(sub, 0, sub[0].indent)
			if err != nil {
				return nil, 0, err
			}
			if n != len(sub) {
				return nil, 0, fmt.Errorf("line %d: inconsistent indentation inside sequence item", sub[n].no)
			}
			out = append(out, v)
		default:
			item := append([]yline{{indent: indent + 2, text: rest, no: line.no}}, sub...)
			v, n, err := parseYAMLBlock(item, 0, indent+2)
			if err != nil {
				return nil, 0, err
			}
			if n != len(item) {
				return nil, 0, fmt.Errorf("line %d: inconsistent indentation inside sequence item", item[n].no)
			}
			out = append(out, v)
		}
		i = j
	}
	return out, i, nil
}

// parseYAMLMap parses consecutive "key: ..." entries at the given
// indentation.
func parseYAMLMap(lines []yline, i, indent int) (any, int, error) {
	m := map[string]any{}
	for i < len(lines) && lines[i].indent == indent {
		line := lines[i]
		if isSeqItem(line.text) {
			return nil, 0, fmt.Errorf("line %d: sequence item at the same indentation as a mapping", line.no)
		}
		key, vtext, ok := splitKey(line.text)
		if !ok {
			return nil, 0, fmt.Errorf("line %d: expected \"key: value\", got %q", line.no, line.text)
		}
		if strings.HasPrefix(key, "\"") || strings.HasPrefix(key, "'") {
			uq, err := unquoteScalar(key, line.no)
			if err != nil {
				return nil, 0, err
			}
			key = uq
		}
		if _, dup := m[key]; dup {
			return nil, 0, fmt.Errorf("line %d: duplicate key %q", line.no, key)
		}
		switch {
		case vtext != "":
			v, err := parseScalar(vtext, line.no)
			if err != nil {
				return nil, 0, err
			}
			m[key] = v
			i++
		case i+1 < len(lines) && lines[i+1].indent > indent:
			v, n, err := parseYAMLBlock(lines, i+1, lines[i+1].indent)
			if err != nil {
				return nil, 0, err
			}
			m[key] = v
			i = n
		case i+1 < len(lines) && lines[i+1].indent == indent && isSeqItem(lines[i+1].text):
			// Sequences are commonly written at the same indentation as
			// their key.
			v, n, err := parseYAMLSeq(lines, i+1, indent)
			if err != nil {
				return nil, 0, err
			}
			m[key] = v
			i = n
		default:
			m[key] = nil
			i++
		}
	}
	return m, i, nil
}

// parseScalar parses one scalar (or one-line flow sequence) value.
func parseScalar(s string, no int) (any, error) {
	switch {
	case s == "":
		return nil, nil
	case s[0] == '"' || s[0] == '\'':
		return unquoteScalar(s, no)
	case s[0] == '[':
		return parseFlowSeq(s, no)
	case s[0] == '{':
		return nil, fmt.Errorf("line %d: flow mappings (\"{...}\") are not supported; use indented \"key: value\" lines", no)
	case s[0] == '&' || s[0] == '*':
		return nil, fmt.Errorf("line %d: YAML anchors and aliases are not supported", no)
	case s == "|" || s == ">" || strings.HasPrefix(s, "| ") || strings.HasPrefix(s, "> "):
		return nil, fmt.Errorf("line %d: block scalars (\"|\" / \">\") are not supported", no)
	case s == "null" || s == "~":
		return nil, nil
	case s == "true":
		return true, nil
	case s == "false":
		return false, nil
	}
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return v, nil // very large seeds
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		// Out-of-range literals (1e999) become ±Inf here so the decoder can
		// reject them as non-finite rather than misreading them as strings.
		return v, nil
	}
	return s, nil
}

// unquoteScalar handles "..." (with \\, \", \n, \t, \r escapes) and '...'
// quoted strings, in which a doubled single quote escapes a quote, rejecting
// trailing junk.
func unquoteScalar(s string, no int) (string, error) {
	quote := s[0]
	var sb strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		switch {
		case quote == '"' && c == '\\':
			if i+1 >= len(s) {
				return "", fmt.Errorf("line %d: dangling escape in %s", no, s)
			}
			switch s[i+1] {
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			default:
				return "", fmt.Errorf("line %d: unsupported escape \\%c in %s", no, s[i+1], s)
			}
			i += 2
		case quote == '\'' && c == '\'' && i+1 < len(s) && s[i+1] == '\'':
			sb.WriteByte('\'')
			i += 2
		case c == quote:
			if i+1 != len(s) {
				return "", fmt.Errorf("line %d: trailing content after closing quote in %s", no, s)
			}
			return sb.String(), nil
		default:
			sb.WriteByte(c)
			i++
		}
	}
	return "", fmt.Errorf("line %d: unterminated quoted string %s", no, s)
}

// parseFlowSeq parses a one-line "[a, b, c]" sequence of scalars (nesting
// allowed).
func parseFlowSeq(s string, no int) (any, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("line %d: flow sequence %q must open and close on one line", no, s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	out := []any{}
	if inner == "" {
		return out, nil
	}
	var quote byte
	depth := 0
	start := 0
	flush := func(end int) error {
		elem := strings.TrimSpace(inner[start:end])
		if elem == "" {
			return fmt.Errorf("line %d: empty element in flow sequence %q", no, s)
		}
		v, err := parseScalar(elem, no)
		if err != nil {
			return err
		}
		out = append(out, v)
		return nil
	}
	for i := 0; i < len(inner); i++ {
		c := inner[i]
		switch {
		case quote == '"' && c == '\\':
			i++
		case quote != 0 && c == quote:
			quote = 0
		case quote == 0 && (c == '"' || c == '\''):
			quote = c
		case quote == 0 && (c == '[' || c == '{'):
			depth++
		case quote == 0 && (c == ']' || c == '}'):
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("line %d: unbalanced brackets in flow sequence %q", no, s)
			}
		case quote == 0 && depth == 0 && c == ',':
			if err := flush(i); err != nil {
				return nil, err
			}
			start = i + 1
		}
	}
	if quote != 0 || depth != 0 {
		return nil, fmt.Errorf("line %d: unbalanced quotes or brackets in flow sequence %q", no, s)
	}
	if err := flush(len(inner)); err != nil {
		return nil, err
	}
	return out, nil
}
