package textidx_test

import (
	"fmt"
	"log"

	"textjoin/internal/textidx"
)

// aliases maps the paper's field abbreviations to the fields indexed
// below.
var aliases = map[string]string{"TI": "title", "AU": "author"}

// Example demonstrates the Boolean retrieval engine: index documents,
// freeze, and search with the paper's query syntax.
func Example() {
	ix := textidx.NewIndex()
	ix.MustAdd(textidx.Document{ExtID: "d1", Fields: map[string]string{
		"title": "Information Filtering Systems", "author": "smith"}})
	ix.MustAdd(textidx.Document{ExtID: "d2", Fields: map[string]string{
		"title": "Information Retrieval", "author": "jones"}})
	ix.MustAdd(textidx.Document{ExtID: "d3", Fields: map[string]string{
		"title": "Filtering Streams of Information", "author": "smith lee"}})
	ix.Freeze()

	// The paper's example search: a phrase plus a field-scoped term.
	expr, err := textidx.Parse("'information' near3 'filtering' and AU='smith'", aliases)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ix.Eval(expr)
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range res.Docs {
		doc, _ := ix.Doc(id)
		fmt.Println(doc.ExtID, "-", doc.Field("title"))
	}
	fmt.Println("postings processed:", res.Postings)
	// Output:
	// d1 - Information Filtering Systems
	// d3 - Filtering Streams of Information
	// postings processed: 7
}

// ExampleParse shows truncation and Boolean connectives.
func ExampleParse() {
	expr, err := textidx.Parse("TI='filter?' and not AU='jones'", aliases)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(expr)
	fmt.Println("terms:", expr.TermCount())
	// Output:
	// title='filter?' and not author='jones'
	// terms: 2
}
