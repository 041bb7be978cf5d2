package lexer

import (
	"strings"
	"testing"
)

func scan(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := New(src).All()
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	return toks
}

func texts(toks []Token) []string {
	var out []string
	for _, tk := range toks {
		if tk.Type == EOF {
			break
		}
		out = append(out, tk.Text)
	}
	return out
}

func TestBasicSelect(t *testing.T) {
	toks := scan(t, "SELECT * FROM trips PREFERRING duration AROUND 14;")
	want := []string{"SELECT", "*", "FROM", "trips", "PREFERRING", "duration", "AROUND", "14", ";"}
	got := texts(toks)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestKeywordCaseInsensitive(t *testing.T) {
	toks := scan(t, "select Preferring CaScAdE")
	for i, want := range []string{"SELECT", "PREFERRING", "CASCADE"} {
		if toks[i].Type != Keyword || toks[i].Text != want {
			t.Errorf("token %d = %v %q, want keyword %q", i, toks[i].Type, toks[i].Text, want)
		}
	}
}

func TestIdentifiersKeepCase(t *testing.T) {
	toks := scan(t, "main_memory CpuSpeed")
	if toks[0].Text != "main_memory" || toks[1].Text != "CpuSpeed" {
		t.Errorf("idents mangled: %v", texts(toks))
	}
	if toks[0].Type != Ident || toks[1].Type != Ident {
		t.Errorf("wrong types")
	}
}

func TestStringLiterals(t *testing.T) {
	toks := scan(t, "'java' 'O''Brien' ''")
	if toks[0].Text != "java" || toks[1].Text != "O'Brien" || toks[2].Text != "" {
		t.Errorf("strings: %q %q %q", toks[0].Text, toks[1].Text, toks[2].Text)
	}
	for i := 0; i < 3; i++ {
		if toks[i].Type != String {
			t.Errorf("token %d not a string", i)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	if _, err := New("'oops").All(); err == nil {
		t.Error("unterminated string should error")
	}
}

func TestNumbers(t *testing.T) {
	toks := scan(t, "42 3.14 .5 1e3 2.5E-2 7.")
	want := []string{"42", "3.14", ".5", "1e3", "2.5E-2", "7."}
	for i, w := range want {
		if toks[i].Type != Number || toks[i].Text != w {
			t.Errorf("number %d = %v %q, want %q", i, toks[i].Type, toks[i].Text, w)
		}
	}
}

func TestOperators(t *testing.T) {
	toks := scan(t, "<> != <= >= = < > ( ) , ; [ ] + - * / .")
	want := []string{"<>", "<>", "<=", ">=", "=", "<", ">", "(", ")", ",", ";", "[", "]", "+", "-", "*", "/", "."}
	got := texts(toks)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("ops: got %v want %v", got, want)
	}
}

func TestComments(t *testing.T) {
	toks := scan(t, "SELECT -- line comment\n 1 /* block\ncomment */ , 2")
	got := texts(toks)
	want := []string{"SELECT", "1", ",", "2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v", got)
	}
}

func TestUnterminatedBlockCommentIsEOF(t *testing.T) {
	toks := scan(t, "1 /* never ends")
	if len(texts(toks)) != 1 {
		t.Errorf("got %v", texts(toks))
	}
}

func TestQuotedIdentifier(t *testing.T) {
	toks := scan(t, `"order" "Weird Name"`)
	if toks[0].Type != Ident || toks[0].Text != "order" {
		t.Errorf("quoted ident: %v %q", toks[0].Type, toks[0].Text)
	}
	if toks[1].Text != "Weird Name" {
		t.Errorf("quoted ident: %q", toks[1].Text)
	}
}

// TestIdentifierCharacters: an identifier is read rune by rune, so a
// multi-byte letter belongs to it, while an invalid UTF-8 byte and an
// empty quoted identifier, which no statement could render back, fail.
func TestIdentifierCharacters(t *testing.T) {
	if toks := scan(t, "café Größe"); toks[0].Text != "café" || toks[1].Text != "Größe" {
		t.Errorf("got %v", texts(toks))
	}
	for _, src := range []string{"SELECT \xd0()", `SELECT ""`} {
		if _, err := New(src).All(); err == nil {
			t.Errorf("%q lexed without error", src)
		}
	}
}

func TestUnexpectedChar(t *testing.T) {
	if _, err := New("SELECT @").All(); err == nil {
		t.Error("@ should be a lexical error")
	}
	var e *Error
	_, err := New("@").All()
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "offset 0") {
		t.Errorf("error lacks position: %v", err)
	}
	_ = e
}

func TestPositions(t *testing.T) {
	toks := scan(t, "SELECT x")
	if toks[0].Pos != 0 || toks[1].Pos != 7 {
		t.Errorf("positions: %d %d", toks[0].Pos, toks[1].Pos)
	}
}

func TestPreferenceKeywords(t *testing.T) {
	for _, kw := range []string{"PREFERRING", "GROUPING", "BUT", "ONLY", "CASCADE", "AROUND", "LOWEST", "HIGHEST", "POS", "NEG", "CONTAINS", "EXPLICIT", "TOP", "LEVEL", "DISTANCE"} {
		if !IsKeyword(kw) {
			t.Errorf("%s should be a keyword", kw)
		}
	}
	if IsKeyword("duration") {
		t.Error("duration must not be a keyword")
	}
}

func TestPaperQueryLexes(t *testing.T) {
	src := `SELECT * FROM car WHERE make = 'Opel'
PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND
price AROUND 40000 AND HIGHEST(power))
CASCADE color = 'red' CASCADE LOWEST(mileage);`
	toks := scan(t, src)
	if len(toks) < 30 {
		t.Errorf("too few tokens: %d", len(toks))
	}
}
