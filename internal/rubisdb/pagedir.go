package rubisdb

import (
	"slices"
	"sync"
)

// pageDir maps page ids to values through a dense two-level table,
// files[id.File][id.PageNo], where a hash map would otherwise sit on
// every page touch. File ids are small (tables are filesPerTable apart)
// and page numbers are dense from 0 because stores allocate them in
// order, so a lookup is two bounds-checked slice indexes. The zero T
// means absent.
type pageDir[T any] struct {
	files [][]T
}

// pageDirLike returns an empty directory with capacity for every page
// of shape's files, carved from one backing array, so filling it with
// shape's page ids never regrows a slice.
func pageDirLike[T, U any](shape *pageDir[U]) pageDir[T] {
	total := 0
	for _, pages := range shape.files {
		total += len(pages)
	}
	slab := make([]T, total)
	d := pageDir[T]{files: make([][]T, len(shape.files))}
	for file, pages := range shape.files {
		d.files[file] = slab[:0:len(pages)]
		slab = slab[len(pages):]
	}
	return d
}

// at returns the value stored for id, or the zero T when id lies past
// the directory or its slot is empty.
func (d *pageDir[T]) at(id PageID) T {
	if id.File < uint32(len(d.files)) {
		if pages := d.files[id.File]; id.PageNo < uint32(len(pages)) {
			return pages[id.PageNo]
		}
	}
	var zero T
	return zero
}

// set stores v for id, growing the directory as needed. Growth clears
// the slots it opens, so values dropped by truncate never resurface.
func (d *pageDir[T]) set(id PageID, v T) {
	d.files = grow(d.files, int(id.File)+1)
	pages := grow(d.files[id.File], int(id.PageNo)+1)
	d.files[id.File] = pages
	pages[id.PageNo] = v
}

// grow extends s to at least n elements, zeroing the ones it adds.
func grow[E any](s []E, n int) []E {
	old := len(s)
	if n <= old {
		return s
	}
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
}

// unset empties id's slot; ids past the directory are already empty.
func (d *pageDir[T]) unset(id PageID) {
	if id.File < uint32(len(d.files)) {
		if pages := d.files[id.File]; id.PageNo < uint32(len(pages)) {
			var zero T
			pages[id.PageNo] = zero
		}
	}
}

// length reports file's page range: one past the highest page number
// the file has grown to, 0 for a file never set.
func (d *pageDir[T]) length(file uint32) uint32 {
	if file < uint32(len(d.files)) {
		return uint32(len(d.files[file]))
	}
	return 0
}

// truncate cuts every file back to length 0, keeping the slices'
// capacity so refilling allocates nothing.
func (d *pageDir[T]) truncate() {
	for file := range d.files {
		d.files[file] = d.files[file][:0]
	}
}

// dirPool recycles page directories between engines: every population
// of a dataset grows its directories to the same shape, so a recycled
// directory refills without regrowing a slice. Directories are emptied
// before they are parked, and keep only their slices' capacity.
type dirPool[T any] struct{ pool sync.Pool }

// frameDirs and pageDirs hold the buffer-pool and page-store
// directories of closed engines (see BufferPool.release and
// Golden.Close).
var (
	frameDirs dirPool[*Frame]
	pageDirs  dirPool[Page]
)

// get returns an empty directory, recycled when one is parked.
func (p *dirPool[T]) get() pageDir[T] {
	if d, ok := p.pool.Get().(*pageDir[T]); ok {
		return *d
	}
	return pageDir[T]{}
}

// put empties d, dropping every value it holds, and parks it. Nothing
// may use d afterwards.
func (p *dirPool[T]) put(d pageDir[T]) {
	if d.files == nil {
		return
	}
	for file, pages := range d.files {
		clear(pages[:cap(pages)])
		d.files[file] = pages[:0]
	}
	p.pool.Put(&d)
}
