package dtd

import (
	"strings"
	"testing"
)

const retailerDTD = `
<!-- retailer catalog -->
<!ELEMENT retailer (name, product, store*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT product (#PCDATA)>
<!ELEMENT store (name, state, city, merchandises)>
<!ELEMENT state (#PCDATA)>
<!ELEMENT city (#PCDATA)>
<!ELEMENT merchandises (clothes+)>
<!ELEMENT clothes (category?, fitting?, situation?)>
<!ELEMENT category (#PCDATA)>
<!ELEMENT fitting (#PCDATA)>
<!ELEMENT situation (#PCDATA)>
<!ATTLIST store id ID #REQUIRED
                region CDATA "south">
`

func TestParseRetailerDTD(t *testing.T) {
	d, err := ParseString(retailerDTD)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(d.Elements) != 11 {
		t.Errorf("elements = %d, want 11", len(d.Elements))
	}
	stars := d.StarNodes()
	if !stars["store"] || !stars["clothes"] {
		t.Errorf("star nodes = %v, want store and clothes", stars)
	}
	for _, notStar := range []string{"retailer", "name", "city", "merchandises", "category"} {
		if stars[notStar] {
			t.Errorf("%s wrongly detected as star node", notStar)
		}
	}
	if !d.PCDATAOnly("city") || d.PCDATAOnly("store") {
		t.Error("PCDATAOnly misclassifies")
	}
	atts := d.Attrs["store"]
	if len(atts) != 2 {
		t.Fatalf("store attrs = %v", atts)
	}
	if !atts[0].Required || atts[0].Type != "ID" {
		t.Errorf("id attdef = %+v", atts[0])
	}
	if atts[1].Default != "south" {
		t.Errorf("region default = %+v", atts[1])
	}
}

func TestContentModelShapes(t *testing.T) {
	d, err := ParseString(`
<!ELEMENT a ((b | c)+, d?, (e, f)*)>
<!ELEMENT g (h)>
<!ELEMENT i EMPTY>
<!ELEMENT j ANY>
<!ELEMENT k (#PCDATA | b)*>
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	a := d.Elements["a"]
	if a.Content != ContentChildren {
		t.Fatalf("a content = %v", a.Content)
	}
	if got := a.Model.String(); got != "((b | c)+, d?, (e, f)*)" {
		t.Errorf("model = %s", got)
	}
	rep := d.StarChildren("a")
	for _, want := range []string{"b", "c", "e", "f"} {
		if !rep[want] {
			t.Errorf("%s should repeat under a: %v", want, rep)
		}
	}
	if rep["d"] {
		t.Error("d must not repeat under a")
	}
	if d.Elements["i"].Content != ContentEmpty || d.Elements["j"].Content != ContentAny {
		t.Error("EMPTY/ANY misparsed")
	}
	k := d.Elements["k"]
	if k.Content != ContentMixed || len(k.Mixed) != 1 || k.Mixed[0] != "b" {
		t.Errorf("mixed = %+v", k)
	}
	// Mixed content children are repeatable.
	if !d.StarChildren("k")["b"] {
		t.Error("mixed child must be repeatable")
	}
}

func TestDuplicateNameRepeats(t *testing.T) {
	d, err := ParseString(`<!ELEMENT a (b, c, b)>`)
	if err != nil {
		t.Fatal(err)
	}
	rep := d.StarChildren("a")
	if !rep["b"] || rep["c"] {
		t.Errorf("rep = %v", rep)
	}
}

func TestGroupQuantifierPropagates(t *testing.T) {
	d, err := ParseString(`<!ELEMENT a ((b, c))* ><!ELEMENT z ((x, y))>`)
	// Note: XML forbids a quantifier after the outer parens of the whole
	// content spec in some readings; we accept it since real DTDs use it.
	if err != nil {
		t.Fatal(err)
	}
	rep := d.StarChildren("a")
	if !rep["b"] || !rep["c"] {
		t.Errorf("group star must propagate: %v", rep)
	}
	rep = d.StarChildren("z")
	if rep["x"] || rep["y"] {
		t.Errorf("no star: %v", rep)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`<!ELEMENT a (b`,                       // unterminated
		`<!ELEMENT a (b,|c)>`,                  // bad separator use
		`<!ELEMENT a (b | c, d)>`,              // mixed separators
		`<!ELEMENT (b)>`,                       // missing name
		`<!ELEMENT a (#PCDATA | b)>`,           // mixed without *
		`<!ATTLIST a b CDATA>`,                 // missing default
		`<!BOGUS a>`,                           // unknown decl
		`<!ELEMENT a EMPTY><!ELEMENT a EMPTY>`, // duplicate
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", c)
		}
	}
}

func TestSkipsEntitiesAndComments(t *testing.T) {
	d, err := ParseString(`
<!-- header -->
<!ENTITY % common "name, id">
<!ELEMENT a (b*)>
<?pi data?>
%common;
<!NOTATION n SYSTEM "x">
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(d.Elements) != 1 || d.Elements["a"] == nil {
		t.Errorf("elements = %v", d.ElementNames())
	}
}

func TestParseReader(t *testing.T) {
	d, err := Parse(strings.NewReader(`<!ELEMENT a (b+)>`))
	if err != nil {
		t.Fatal(err)
	}
	if !d.StarNodes()["b"] {
		t.Error("b should be a star node (+ counts)")
	}
}
