package obs

import (
	"net/http"
	"strings"
)

// WantsHTML sniffs the Accept header (browsers ask for text/html;
// curl and probes do not). The ops plane and the tracez handler use it
// to offer the same dual rendering.
func WantsHTML(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/html")
}
