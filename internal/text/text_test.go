package text

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPorterStemClassicVocabulary(t *testing.T) {
	// Reference pairs from Porter's published examples.
	cases := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		"triplicate":     "triplic",
		"formative":      "form",
		"formalize":      "formal",
		"electriciti":    "electr",
		"electrical":     "electr",
		"hopeful":        "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"gyroscopic":     "gyroscop",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"homologou":      "homolog",
		"communism":      "commun",
		"activate":       "activ",
		"angulariti":     "angular",
		"homologous":     "homolog",
		"effective":      "effect",
		"bowdlerize":     "bowdler",
		"probate":        "probat",
		"rate":           "rate",
		"cease":          "ceas",
		"controll":       "control",
		"roll":           "roll",
	}
	for in, want := range cases {
		if got := PorterStem(in); got != want {
			t.Errorf("PorterStem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPorterStemShortWords(t *testing.T) {
	for _, w := range []string{"", "a", "is", "be"} {
		if got := PorterStem(w); got != w {
			t.Errorf("PorterStem(%q) = %q, want unchanged", w, got)
		}
	}
}

// Property: stemming is idempotent-ish in length — never grows a word
// by more than one character (the 'e' restorations) and never panics.
func TestPropPorterStemBounded(t *testing.T) {
	f := func(s string) bool {
		// Restrict to plausible lower-case words.
		var sb strings.Builder
		for _, r := range strings.ToLower(s) {
			if r >= 'a' && r <= 'z' {
				sb.WriteRune(r)
			}
		}
		w := sb.String()
		got := PorterStem(w)
		return len(got) <= len(w)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStripHTML(t *testing.T) {
	html := `<html><head><style>body {color: red}</style>
<script>var x = "<ignored>";</script></head>
<body><h1>Title</h1><p>Hello <b>world</b></p></body></html>`
	got := StripHTML(html)
	for _, want := range []string{"Title", "Hello", "world"} {
		if !strings.Contains(got, want) {
			t.Errorf("StripHTML lost %q: %q", want, got)
		}
	}
	for _, banned := range []string{"color", "var x", "<", ">"} {
		if strings.Contains(got, banned) {
			t.Errorf("StripHTML leaked %q: %q", banned, got)
		}
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! It's 2012; MapReduce-based.")
	want := []string{"hello", "world", "it", "s", "mapreduce", "based"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
}

func TestIsStopWord(t *testing.T) {
	for _, w := range []string{"the", "and", "is", "of"} {
		if !IsStopWord(w) {
			t.Errorf("%q must be a stop word", w)
		}
	}
	for _, w := range []string{"cluster", "spectral", "kernel"} {
		if IsStopWord(w) {
			t.Errorf("%q must not be a stop word", w)
		}
	}
}

func TestClean(t *testing.T) {
	got := Clean("<p>The clusters are clustering beautifully in the matrices</p>")
	// Stop words gone, stems applied.
	joined := strings.Join(got, " ")
	if strings.Contains(joined, "the") || strings.Contains(joined, "are") {
		t.Fatalf("stop words leaked: %v", got)
	}
	var hasClusterStem bool
	for _, tok := range got {
		if tok == "cluster" {
			hasClusterStem = true
		}
	}
	if !hasClusterStem {
		t.Fatalf("expected stem 'cluster' in %v", got)
	}
}
