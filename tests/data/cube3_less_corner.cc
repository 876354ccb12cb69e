cubecomplex v1
vertex 000
vertex 001
vertex 010
vertex 011
vertex 100
vertex 101
vertex 110
edge 000 001
edge 000 010
edge 000 100
edge 001 011
edge 001 101
edge 010 011
edge 010 110
edge 100 101
edge 100 110
