package bad

// A floating comment naming a file that does not exist: MISSING.md.

const Bare = 1

type Widget struct{}

func (w Widget) Spin() {}

func Exported() {}

func unexportedIsFine() {}

type small struct{}

func (s small) Quiet() {}
