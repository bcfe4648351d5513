package keys

import (
	"fmt"
	"strings"
	"testing"

	"extract/internal/classify"
	"extract/xmltree"
)

func mine(t *testing.T, src string) (*Keys, *classify.Classification, *xmltree.Document) {
	t.Helper()
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cls := classify.Classify(doc)
	return Mine(doc, cls), cls, doc
}

func TestMineSimpleKey(t *testing.T) {
	k, _, _ := mine(t, `
<retailers>
  <retailer><name>Brook Brothers</name><product>apparel</product></retailer>
  <retailer><name>Levis</name><product>apparel</product></retailer>
  <retailer><name>ESprit</name><product>apparel</product></retailer>
</retailers>`)
	attr, ok := k.KeyAttr("retailer")
	if !ok || attr != "name" {
		t.Errorf("retailer key = %q (%v), want name", attr, ok)
	}
	// product has duplicate values, so it is not a key, even alone.
	k, _, _ = mine(t, `
<retailers>
  <retailer><product>apparel</product></retailer>
  <retailer><product>apparel</product></retailer>
</retailers>`)
	if attr, ok := k.KeyAttr("retailer"); ok {
		t.Errorf("product wrongly a key: %q", attr)
	}
}

func TestMinePrefersID(t *testing.T) {
	k, _, _ := mine(t, `
<items>
  <item><id>1</id><name>alpha</name></item>
  <item><id>2</id><name>beta</name></item>
</items>`)
	attr, ok := k.KeyAttr("item")
	if !ok || attr != "id" {
		t.Errorf("item key = %q, want id", attr)
	}
}

func TestMineRejectsPartialAttr(t *testing.T) {
	// "code" is unique but missing on one instance: not a key.
	k, _, _ := mine(t, `
<items>
  <item><code>1</code><name>alpha</name></item>
  <item><name>beta</name></item>
  <item><code>3</code><name>gamma</name></item>
</items>`)
	attr, ok := k.KeyAttr("item")
	if !ok || attr != "name" {
		t.Errorf("item key = %q (%v), want name", attr, ok)
	}
}

func TestMineRejectsMultiValued(t *testing.T) {
	// Two tag children on one instance: tag is not a key even if globally
	// distinct.
	k, _, _ := mine(t, `
<items>
  <item><tag>a</tag><tag>b</tag><name>x</name></item>
  <item><tag>c</tag><name>y</name></item>
</items>`)
	if attr, ok := k.KeyAttr("item"); !ok || attr != "name" {
		t.Errorf("item key = %q (%v), want name", attr, ok)
	}
	k, _, _ = mine(t, `
<items>
  <item><tag>a</tag><tag>b</tag></item>
  <item><tag>c</tag></item>
</items>`)
	if attr, ok := k.KeyAttr("item"); ok {
		t.Errorf("multi-valued tag wrongly a key: %q", attr)
	}
}

func TestMineNoKey(t *testing.T) {
	k, _, _ := mine(t, `
<items>
  <item><color>red</color></item>
  <item><color>red</color></item>
</items>`)
	if attr, ok := k.KeyAttr("item"); ok {
		t.Errorf("key found where none exists: %s", attr)
	}
	if len(k.Entities()) != 0 {
		t.Errorf("entities with keys = %v", k.Entities())
	}
}

func TestKeyValueOf(t *testing.T) {
	k, cls, doc := mine(t, `
<retailers>
  <retailer><name>Brook Brothers</name></retailer>
  <retailer><name>Levis</name></retailer>
</retailers>`)
	r := doc.Root.ChildElement("retailer")
	attr, val, ok := k.KeyValueOf(cls, r)
	if !ok || attr != "name" || val != "Brook Brothers" {
		t.Errorf("KeyValueOf = %q %q %v", attr, val, ok)
	}
	// Non-entity label has no key.
	if _, _, ok := k.KeyValueOf(cls, doc.Root); ok {
		t.Error("root should have no key")
	}
}

func TestMineThroughConnectionNodes(t *testing.T) {
	// The key attribute sits under a connection node (contact), not as a
	// direct child: XSeek-style attribute ownership still finds it.
	k, cls, doc := mine(t, `
<stores>
  <store><state>Texas</state><contact><name>Levis</name><phone>1</phone></contact></store>
  <store><state>Texas</state><contact><name>ESprit</name><phone>2</phone></contact></store>
</stores>`)
	attr, ok := k.KeyAttr("store")
	if !ok {
		t.Fatal("no store key mined through connection node")
	}
	if attr != "name" && attr != "phone" {
		t.Fatalf("store key = %q", attr)
	}
	if attr != "name" {
		t.Errorf("store key = %q, want name preferred", attr)
	}
	s := doc.Root.ChildElement("store")
	_, val, ok := k.KeyValueOf(cls, s)
	if !ok || val != "Levis" {
		t.Errorf("KeyValueOf = %q %v", val, ok)
	}
}

func TestMineStopsAtNestedEntities(t *testing.T) {
	// A nested entity's attributes must not leak into the outer entity:
	// clothes' category is not a store attribute. Each store holds one
	// clothes of a category of its own, so a leaked category would be the
	// store's key.
	doc, err := xmltree.ParseString(`
<stores>
  <store><clothes><category>x</category></clothes></store>
  <store><clothes><category>y</category></clothes></store>
</stores>`)
	if err != nil {
		t.Fatal(err)
	}
	cls := classify.FromCategories(map[string]classify.Category{
		"store": classify.Entity, "clothes": classify.Entity, "category": classify.Attribute})
	k := Mine(doc, cls)
	if attr, ok := k.KeyAttr("store"); ok {
		t.Errorf("%s leaked into store's attributes", attr)
	}
	if attr, ok := k.KeyAttr("clothes"); !ok || attr != "category" {
		t.Errorf("clothes key = %q (%v), want category", attr, ok)
	}
}

func TestMineScale(t *testing.T) {
	var b strings.Builder
	b.WriteString("<items>")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "<item><id>i%d</id><group>g%d</group></item>", i, i%10)
	}
	b.WriteString("</items>")
	k, _, _ := mine(t, b.String())
	attr, ok := k.KeyAttr("item")
	if !ok || attr != "id" {
		t.Errorf("key = %q", attr)
	}
	// group takes 10 values over 500 items: no key without the id.
	k, _, _ = mine(t, strings.NewReplacer("<id>", "<!--", "</id>", "-->").Replace(b.String()))
	if attr, ok := k.KeyAttr("item"); ok {
		t.Errorf("key without the id = %q", attr)
	}
}
