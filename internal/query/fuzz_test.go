package query

import (
	"math/rand"
	"strings"
	"testing"
)

// tokenSoup returns n random strings of query-language tokens.
func tokenSoup(seed int64, n int) []string {
	vocab := []string{
		"SELECT", "FROM", "WHERE", "ONLY", "AND", "OR", "NOT", "IN",
		"CONTAINS", "ORDER", "BY", "ASC", "DESC", "LIMIT", "COUNT", "SUM",
		"AVG", "MIN", "MAX", "*", "(", ")", ",", ".", "=", "!=", "<", "<=",
		">", ">=", "<>", "Vehicle", "weight", "manufacturer", "location",
		"42", "3.14", "-7", "'Detroit'", `"x"`, "true", "false", "null",
		"''", "'unterminated", "\x00", "日本語", "_id",
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		parts := make([]string, r.Intn(15))
		for j := range parts {
			parts[j] = vocab[r.Intn(len(vocab))]
		}
		out[i] = strings.Join(parts, " ")
	}
	return out
}

// checkParse is the parser's oracle: any input parses or returns an error
// — never a panic — and a parsed statement's canonical text parses back to
// the same canonical text. The second half is load-bearing: the shard router
// and shard.RemoteSource ship q.String() to members, so a statement that
// re-parses differently is answered differently there.
func checkParse(t *testing.T, src string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("panic on %q: %v", src, p)
		}
	}()
	q, err := Parse(src)
	if err != nil {
		return
	}
	canon := q.String()
	q2, err := Parse(canon)
	if err != nil {
		t.Fatalf("canonical form of %q unparseable: %q: %v", src, canon, err)
	}
	if again := q2.String(); again != canon {
		t.Fatalf("canonical form of %q is not a fixed point:\n%q\n%q", src, canon, again)
	}
}

// TestParserNeverPanics throws random token soup at the parser.
func TestParserNeverPanics(t *testing.T) {
	for _, src := range tokenSoup(17, 5000) {
		checkParse(t, src)
	}
}

// FuzzParse is the parser's native fuzz target (`make fuzz`); its seeds —
// a slice of the token soup plus one statement of every clause shape — run
// under plain `go test`.
func FuzzParse(f *testing.F) {
	for _, src := range tokenSoup(17, 200) {
		f.Add(src)
	}
	for _, src := range []string{
		`SELECT * FROM Vehicle`,
		`SELECT name, owner.address.city FROM ONLY Vehicle WHERE weight >= 7500 AND NOT (color = 'red' OR color IN ('blue', 'it''s'))`,
		`SELECT COUNT(*), SUM(weight), AVG(owner.age) FROM Vehicle WHERE tags CONTAINS "x" ORDER BY weight DESC LIMIT 10`,
		`SELECT a FROM T WHERE a = -1.5e300 OR a != 9223372036854775807 OR a <> null OR b = true`,
		`SELECT a FROM T WHERE 3 < a AND a IN (1, 2.0, -3) ORDER BY a ASC`,
		// Found by this target: literals were rendered with Go escapes and
		// exponents the lexer does not read, so a backslash or a raw byte
		// changed on the way to a member and 0.00001 did not parse there.
		`SELECT a FROM T WHERE a < 0.00001 OR a > 123456789012345678901234567890.5 OR a = 3.0`,
		"SELECT a FROM T WHERE a = 'back\\slash' OR a = \"q\"\"uote\" OR a IN ('\x96', 'new\nline')",
	} {
		f.Add(src)
	}
	f.Fuzz(checkParse)
}

// TestLexerNeverPanics covers raw byte soup (invalid UTF-8 included).
func TestLexerNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, r.Intn(40))
		r.Read(buf)
		src := string(buf)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on %x: %v", buf, p)
				}
			}()
			Parse(src)
		}()
	}
}
