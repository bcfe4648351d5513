package classify

import (
	"testing"

	"extract/internal/dtd"
	"extract/xmltree"
)

const corpus = `
<retailers>
  <retailer>
    <name>Brook Brothers</name>
    <product>apparel</product>
    <store>
      <state>Texas</state><city>Houston</city>
      <merchandises>
        <clothes><category>suit</category><fitting>man</fitting></clothes>
        <clothes><category>outwear</category><fitting>woman</fitting></clothes>
      </merchandises>
    </store>
    <store>
      <state>Texas</state><city>Austin</city>
      <merchandises>
        <clothes><category>skirt</category></clothes>
      </merchandises>
    </store>
  </retailer>
  <retailer>
    <name>Levis</name>
    <product>apparel</product>
    <store>
      <state>Texas</state><city>Dallas</city>
      <merchandises><clothes><category>jeans</category></clothes></merchandises>
    </store>
  </retailer>
</retailers>`

func parse(t *testing.T, src string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}

func TestClassifyInferred(t *testing.T) {
	c := Classify(parse(t, corpus))

	wantEntity := []string{"clothes", "retailer", "store"}
	if got := c.Entities(); !eq(got, wantEntity) {
		t.Errorf("entities = %v, want %v", got, wantEntity)
	}
	wantAttr := []string{"category", "city", "fitting", "name", "product", "state"}
	if got := c.Attributes(); !eq(got, wantAttr) {
		t.Errorf("attributes = %v, want %v", got, wantAttr)
	}
	wantConn := []string{"merchandises", "retailers"}
	if got := c.Connections(); !eq(got, wantConn) {
		t.Errorf("connections = %v, want %v", got, wantConn)
	}
}

func TestOfNode(t *testing.T) {
	doc := parse(t, corpus)
	c := Classify(doc)
	retailer := doc.Root.ChildElement("retailer")
	if got := c.OfLabel(retailer.Label); got != Entity {
		t.Errorf("retailer = %v", got)
	}
	name := retailer.ChildElement("name")
	if got := c.OfLabel(name.Label); got != Attribute {
		t.Errorf("name = %v", got)
	}
	if text := name.Children[0]; c.IsEntity(text) || c.IsAttribute(text) {
		t.Errorf("text is classified as an entity or an attribute")
	}
	if got := c.OfLabel(doc.Root.Label); got != Connection {
		t.Errorf("root = %v", got)
	}
	if !c.IsEntity(retailer) || c.IsAttribute(retailer) || !c.IsAttribute(name) || c.IsEntity(name) {
		t.Error("IsEntity/IsAttribute inconsistent")
	}
}

func TestEntityOwner(t *testing.T) {
	doc := parse(t, corpus)
	c := Classify(doc)
	cat := doc.Root.Descendant("retailer", "store", "merchandises", "clothes", "category")
	owner := c.EntityOwnerWithin(cat, nil)
	if owner == nil || owner.Label != "clothes" {
		t.Errorf("owner of category = %v", owner)
	}
	city := doc.Root.Descendant("retailer", "store", "city")
	owner = c.EntityOwnerWithin(city, nil)
	if owner == nil || owner.Label != "store" {
		t.Errorf("owner of city = %v", owner)
	}
	if got := c.EntityOwnerWithin(doc.Root, nil); got != nil {
		t.Errorf("owner of root = %v", got)
	}
}

func TestClassifyWithDTD(t *testing.T) {
	// The instance has a single store per retailer, so inference alone
	// would not star "store"; the DTD declares it starred.
	src := `<retailers><retailer><name>A</name><store><city>X</city></store></retailer>
	<retailer><name>B</name><store><city>Y</city></store></retailer></retailers>`
	d, err := dtd.ParseString(`
<!ELEMENT retailers (retailer*)>
<!ELEMENT retailer (name, store*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT store (city)>
<!ELEMENT city (#PCDATA)>
`)
	if err != nil {
		t.Fatal(err)
	}
	doc := parse(t, src)

	inferredOnly := Classify(doc)
	if inferredOnly.OfLabel("store") == Entity {
		t.Fatal("test premise broken: store must not be inferred as entity")
	}

	c := Classify(doc, WithDTD(d))
	if c.OfLabel("store") != Entity {
		t.Errorf("store with DTD = %v, want entity", c.OfLabel("store"))
	}
	if c.OfLabel("retailer") != Entity {
		t.Errorf("retailer = %v", c.OfLabel("retailer"))
	}
	if c.OfLabel("city") != Attribute {
		t.Errorf("city = %v", c.OfLabel("city"))
	}
}

func TestDTDOverridesSpuriousRepeat(t *testing.T) {
	// The instance repeats "note" under one parent, but the DTD declares
	// it non-repeating; DTD wins for declared labels.
	src := `<r><note>a</note><note>b</note></r>`
	d, err := dtd.ParseString(`<!ELEMENT r (note?)><!ELEMENT note (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	c := Classify(parse(t, src), WithDTD(d))
	if c.OfLabel("note") != Attribute {
		t.Errorf("note = %v, want attribute (DTD precedence)", c.OfLabel("note"))
	}
}

func TestDeclaredButUnseenLabels(t *testing.T) {
	d, err := dtd.ParseString(`<!ELEMENT r (x*)><!ELEMENT x (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	c := Classify(parse(t, `<r/>`), WithDTD(d))
	if c.OfLabel("x") != Entity {
		t.Errorf("declared-but-unseen x = %v, want entity", c.OfLabel("x"))
	}
	if c.OfLabel("ghost") != Connection {
		t.Errorf("unknown label = %v, want connection", c.OfLabel("ghost"))
	}
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
