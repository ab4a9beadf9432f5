package session

// FailJournalWrites makes every later journal write on s fail with err. It
// lets the external tests drive a failed journal through the HTTP server.
func FailJournalWrites(s *Store, err error) {
	fs := &faultSegment{}
	injectSegment(s, fs)
	fs.set(err, 0, nil)
}
