// progen degradation: rung=triage fault=budget verdict=leak replay=budget maxqueries=6 seed=1 index=2
unsigned char A[16];
unsigned char B[131072];
unsigned char S[16];
unsigned int size_A = 16;
unsigned char tmp;
unsigned int slot;
unsigned int pub0;
unsigned int pub1;
unsigned int victim(unsigned int y, unsigned int z) {
	unsigned int a = y;
	unsigned int b = z;
	(tmp &= A[(b & 15)]);
	(A[(a & 15)] = ((unsigned char)b));
	(tmp &= A[(b & 15)]);
	(tmp &= A[(a & 15)]);
	return (((a * 31) + (b * 7)) + slot);
}
