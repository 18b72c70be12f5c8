package bad

// Test files are scanned for references too: "docs/GONE.md".

func TestExemptFromDoccheck() {}
