package httpx

import "testing"

// FuzzParseInto: the arena parser must agree with a fresh Parse on any
// input even when its Request still holds a previous request's params
// and cookies, and neither may panic.
func FuzzParseInto(f *testing.F) {
	f.Add([]byte("GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=00000000000000aa\r\n\r\n"))
	f.Add([]byte("POST /login.php HTTP/1.1\r\nContent-Length: 23\r\n\r\nuserid=1001&passwd=abcd"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, werr := Parse(raw)
		var reused Request
		prev := "POST /p.php?a=1&b=2 HTTP/1.1\r\nCookie: x=1; y=2\r\nContent-Length: 7\r\n\r\nc=3&d=4"
		if err := ParseInto([]byte(prev), &reused); err != nil {
			t.Fatal(err)
		}
		gerr := ParseInto(raw, &reused)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("Parse err %v, ParseInto err %v", werr, gerr)
		}
		if werr == nil && !sameParse(want, reused) {
			t.Fatalf("Parse:     %+v\nParseInto: %+v", want, reused)
		}
	})
}
